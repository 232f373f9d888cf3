"""Partitions, hooks, standard Young tableaux and their transposition graph.

Partitions are plain tuples of weakly decreasing positive ints. Cells are
1-based (row, col) pairs. The transposition graph on standard tableaux of a
shape connects t and s_k.t whenever the entry swap (k, k+1) keeps the
tableau standard; its breadth-first distance from the row-filling tableau
is the Coxeter length of the permutation carrying one to the other, which
is what makes the graph usable for building reduced words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial

from .errors import InvariantViolation, ResourceGuardError

# Ceiling on the tableaux of one graph: det_poly_factored costs about 3.5 KB
# and 0.2 ms per tableau, so one shape stays near 350 MB and 20 s; admits n <= 14.
MAX_TABLEAUX = 100_000

Cell = tuple[int, int]


def check_partition(parts) -> tuple[int, ...]:
    """Validate and canonicalize a partition; the empty partition is allowed."""
    shape = tuple(int(p) for p in parts)
    for i, p in enumerate(shape):
        if p < 1:
            raise ValueError(f"partition parts must be positive, got {shape}")
        if i and shape[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing, got {shape}")
    return shape


def enumerate_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, lexicographically decreasing: (n) first."""
    if n < 1:
        raise ValueError(f"partitions are enumerated for n >= 1, got {n}")

    def extend(remaining: int, cap: int, prefix: tuple[int, ...], out: list):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            extend(remaining - part, part, prefix + (part,), out)

    result: list[tuple[int, ...]] = []
    extend(n, n, (), result)
    return result


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


def syt_count(shape) -> int:
    """Number of standard Young tableaux, by the hook length formula."""
    shape = check_partition(shape)
    n = sum(shape)
    count = factorial(n)
    for h in hook_lengths(shape).values():
        count //= h
    return count


def even_degree_shapes(n_max: int) -> list[tuple[int, ...]]:
    """Partitions of n for 2 <= n <= n_max with an even number of tableaux."""
    shapes = (shape for n in range(2, n_max + 1) for shape in enumerate_partitions(n))
    return [shape for shape in shapes if syt_count(shape) % 2 == 0]


@dataclass(frozen=True)
class StandardTableau:
    """A standard filling of a Young diagram, stored as tuples of rows."""

    rows: tuple[tuple[int, ...], ...]
    _positions: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        shape = check_partition(len(row) for row in self.rows)
        n = sum(shape)
        positions: dict[int, Cell] = {}
        for i, row in enumerate(self.rows, start=1):
            for j, value in enumerate(row, start=1):
                if j > 1 and row[j - 2] >= value:
                    raise ValueError(f"row {i} not increasing in {self.rows}")
                if i > 1 and self.rows[i - 2][j - 1] >= value:
                    raise ValueError(f"column {j} not increasing in {self.rows}")
                positions[value] = (i, j)
        if set(positions) != set(range(1, n + 1)):
            raise ValueError(f"entries must be exactly 1..{n}, got {sorted(positions)}")
        object.__setattr__(self, "_positions", positions)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    @property
    def n(self) -> int:
        return len(self._positions)

    def position(self, value: int) -> Cell:
        """1-based (row, col) of an entry."""
        return self._positions[value]

    def content(self, value: int) -> int:
        """Diagonal index col - row of an entry's cell."""
        i, j = self._positions[value]
        return j - i

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __repr__(self) -> str:
        return f"StandardTableau({self.to_lists()})"


def row_filling_tableau(shape) -> StandardTableau:
    """The minimal tableau: 1..a1 in row one, then a1+1.. in row two, etc."""
    shape = check_partition(shape)
    rows = []
    next_entry = 1
    for part in shape:
        rows.append(tuple(range(next_entry, next_entry + part)))
        next_entry += part
    return StandardTableau(tuple(rows))


def apply_simple_transposition(k: int, t: StandardTableau) -> StandardTableau | None:
    """Swap entries k and k+1; None when the result would not be standard.

    The swap breaks standardness exactly when k and k+1 share a row or a
    column (where they are necessarily adjacent).
    """
    n = t.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"transposition index must be in 1..{n - 1}, got {k}")
    (i1, j1), (i2, j2) = t.position(k), t.position(k + 1)
    if i1 == i2 or j1 == j2:
        return None
    rows = [list(row) for row in t.rows]
    rows[i1 - 1][j1 - 1], rows[i2 - 1][j2 - 1] = k + 1, k
    return StandardTableau(tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class TableauGraph:
    """All standard tableaux of one shape, wired by simple transpositions.

    nodes[0] is the row-filling tableau; nodes are in breadth-first
    discovery order (generator index ascending within a node), which is the
    package-wide canonical basis order. Each edge (lo, hi, k) stores node
    indices with distance(hi) = distance(lo) + 1 and s_k applied to either
    endpoint giving the other.
    """

    shape: tuple[int, ...]
    nodes: tuple[StandardTableau, ...]
    edges: tuple[tuple[int, int, int], ...]
    distances: tuple[int, ...]
    parents: tuple[tuple[int, int] | None, ...]

    @property
    def root(self) -> StandardTableau:
        return self.nodes[0]

    @property
    def size(self) -> int:
        return len(self.nodes)

    def index(self, t: StandardTableau) -> int:
        return self._index[t]

    def __post_init__(self):
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.nodes)})


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


# Bounded: one graph can hold tens of thousands of tableaux, and sweeps
# visit shapes sequentially anyway.
@lru_cache(maxsize=32)
def _build_graph(shape: tuple[int, ...]) -> TableauGraph:
    root = row_filling_tableau(shape)
    n = sum(shape)
    nodes = [root]
    index = {root: 0}
    dist = [0]
    parents: list[tuple[int, int] | None] = [None]
    edges: list[tuple[int, int, int]] = []
    head = 0
    while head < len(nodes):
        t = nodes[head]
        d = dist[head]
        for k in range(1, n):
            u = apply_simple_transposition(k, t)
            if u is None:
                continue
            at = index.get(u)
            if at is None:
                index[u] = at = len(nodes)
                nodes.append(u)
                dist.append(d + 1)
                parents.append((head, k))
                edges.append((head, at, k))
            elif dist[at] == d + 1:
                edges.append((head, at, k))
            elif dist[at] != d - 1:
                raise InvariantViolation(
                    f"transposition graph of {shape} is not graded: "
                    f"edge s_{k} joins distances {d} and {dist[at]}"
                )
        head += 1
    expected = syt_count(shape)
    if len(nodes) != expected:
        raise InvariantViolation(
            f"enumerated {len(nodes)} tableaux of shape {shape}, hook formula says {expected}"
        )
    return TableauGraph(
        shape=shape,
        nodes=tuple(nodes),
        edges=tuple(edges),
        distances=tuple(dist),
        parents=tuple(parents),
    )


def tableau_word(t: StandardTableau) -> tuple[int, ...]:
    """A reduced word for the permutation w with t = w . t_shape.

    Applying s_(word[-1]) first and s_(word[0]) last to the row-filling
    tableau yields t; the word length is the graph distance from the root.
    """
    graph = enumerate_syt(t.shape)
    word = []
    idx = graph.index(t)
    while graph.parents[idx] is not None:
        idx, k = graph.parents[idx]
        word.append(k)
    return tuple(word)
