import gc
from itertools import product
from math import comb, factorial, prod

import pytest
from hypothesis import given, strategies as st

from orthdet import gl, hecke, parker, tableaux
from orthdet.cli import main
from orthdet.errors import InvariantViolation, ResourceGuardError
from orthdet.tableaux import (
    check_partition,
    conjugate_partition,
    enumerate_partitions,
    enumerate_syt,
    hook_lengths,
    shape_record,
    syt_count,
    tableau_rows,
    tableau_word,
)


def brute_force_partition_count(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        return 1
    return sum(brute_force_partition_count(n - p, p) for p in range(1, min(cap, n) + 1))


@st.composite
def shapes(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    return draw(st.sampled_from(enumerate_partitions(n)))


def test_enumerate_partitions_examples():
    assert enumerate_partitions(1) == [(1,)]
    assert len(enumerate_partitions(5)) == 7
    assert (2, 2) in enumerate_partitions(4)
    assert (2, 1, 1) in enumerate_partitions(4)


def test_enumerate_partitions_order_is_lex_decreasing():
    assert enumerate_partitions(5) == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


def test_enumerate_partitions_counts_match_brute_force():
    for n in range(1, 13):
        assert len(enumerate_partitions(n)) == brute_force_partition_count(n)


def test_enumerate_partitions_leaves_no_cycle():
    # With the collector off, garbage that only it can free would stay
    # behind: a self-calling closure is such a reference cycle.
    gc.collect()
    gc.disable()
    try:
        for n in range(1, 12):
            enumerate_partitions(n)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_partitions_rejects_nonpositive():
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(-3)


def test_check_partition():
    assert check_partition([3, 1, 1]) == (3, 1, 1)
    assert check_partition(()) == ()
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_hook_lengths_examples():
    assert hook_lengths((3, 1, 1)) == {(1, 1): 5, (1, 2): 2, (1, 3): 1, (2, 1): 2, (3, 1): 1}
    assert hook_lengths((1,)) == {(1, 1): 1}
    assert hook_lengths((2, 2)) == {(1, 1): 3, (1, 2): 2, (2, 1): 2, (2, 2): 1}


def _row_filling(shape):
    """The row-filling tableau of a shape, as rows: 1..a1 in row one, and so on."""
    entries = iter(range(1, sum(shape) + 1))
    return tuple(tuple(next(entries) for _ in range(part)) for part in shape)


def _positions(rows):
    """The 0-based (row, col) of every entry of a tableau given by its rows."""
    return {value: (i, j) for i, row in enumerate(rows) for j, value in enumerate(row)}


def _contents(rows):
    """The content vector (col - row of entries 1..n) of a tableau given by its rows."""
    at = _positions(rows)
    return tuple(j - i for i, j in (at[value] for value in range(1, len(at) + 1)))


def _swap(rows, k):
    """The rows with entries k and k+1 swapped; None where they share a row or a column."""
    at = _positions(rows)
    (i1, j1), (i2, j2) = at[k], at[k + 1]
    if i1 == i2 or j1 == j2:
        return None
    swapped = {k: k + 1, k + 1: k}
    return tuple(tuple(swapped.get(value, value) for value in row) for row in rows)


def test_row_filling_examples():
    assert enumerate_syt((4, 3, 2)).nodes[0] == ((1, 2, 3, 4), (5, 6, 7), (8, 9))
    assert enumerate_syt((6,)).nodes[0] == ((1, 2, 3, 4, 5, 6),)
    assert enumerate_syt((1, 1, 1)).nodes[0] == ((1,), (2,), (3,))
    assert _row_filling((4, 3, 2)) == ((1, 2, 3, 4), (5, 6, 7), (8, 9))


def test_tableau_validation():
    # The placement refuses a content vector that is not standard: the cell
    # of some entry lacks its left neighbour, or (0, -1, 0) its upper one.
    assert tableau_rows((0, 1, -1)) == ((1, 2), (3,))
    assert tableau_rows(()) == ()
    for contents in [(1,), (0, 0), (0, 2), (0, -2), (0, 1, 0), (0, -1, 0), (0, 1, -1, 1)]:
        with pytest.raises(ValueError, match="extends no standard tableau"):
            tableau_rows(contents)


def test_placement_accepts_exactly_the_standard_content_vectors():
    # Every vector in (-n, n)^n for n <= 5, against the tableaux found by
    # the search over rows: accepted iff standard, and placed in its rows.
    for n in range(1, 6):
        standard = {
            _contents(t): t for shape in enumerate_partitions(n) for t in _tableau_search(shape)[0]
        }
        accepted = 0
        for contents in product(range(1 - n, n), repeat=n):
            try:
                rows = tableau_rows(contents)
            except ValueError:
                assert contents not in standard, contents
                continue
            assert standard[contents] == rows, contents
            accepted += 1
        assert accepted == len(standard) == sum(map(syt_count, enumerate_partitions(n)))


def test_tableau_accessors():
    # A graph holds content vectors; `nodes` builds the rows once.
    graph = enumerate_syt((3, 1, 1))
    assert graph.contents[0] == (0, 1, 2, -1, -2)
    assert graph.nodes[0] == ((1, 2, 3), (4,), (5,))
    assert graph.nodes is graph.nodes
    assert [_contents(t) for t in graph.nodes] == list(graph.contents)


def test_apply_transposition_examples():
    # From the row-filling tableau of (3, 1, 1) only s_3 applies: s_1 and
    # s_2 swap entries in one row, s_4 entries in one column.
    graph = enumerate_syt((3, 1, 1))
    assert [(hi, k) for lo, hi, k in graph.edges if lo == 0] == [(1, 3)]
    assert graph.contents[1] == (0, 1, -1, 2, -2)
    assert graph.nodes[1] == ((1, 2, 4), (3,), (5,))
    assert enumerate_syt((2, 2)).nodes[1] == ((1, 3), (2, 4))


@given(shapes())
def test_s1_is_never_standard(shape):
    # 1 and 2 always share a row or a column: their contents differ by one.
    graph = enumerate_syt(shape)
    assert all(k != 1 for _, _, k in graph.edges)
    assert all(abs(c[0] - c[1]) == 1 for c in graph.contents if len(c) >= 2)


def test_swaps_equal_validated_tableaux():
    # Every edge swaps entries k and k+1 in the rows of its lower end and
    # contents k and k+1 in its content vector.
    for n in range(1, 8):
        for shape in enumerate_partitions(n):
            graph = enumerate_syt(shape)
            for lo, hi, k in graph.edges:
                assert _swap(graph.nodes[lo], k) == graph.nodes[hi]
                c = graph.contents[lo]
                assert c[:k - 1] + (c[k], c[k - 1]) + c[k + 1:] == graph.contents[hi]


@given(shapes())
def test_transposition_is_involution_where_defined(shape):
    # The tableaux are closed under every swap that keeps them standard,
    # and each such swap undoes itself.
    graph = enumerate_syt(shape)
    nodes = set(graph.nodes)
    for t in graph.nodes:
        for k in range(1, sum(shape)):
            u = _swap(t, k)
            if u is not None:
                assert u in nodes and _swap(u, k) == t


def test_enumerate_syt_examples():
    assert enumerate_syt((3, 1, 1)).size == 6
    graph = enumerate_syt((6,))
    assert graph.size == 1 and graph.edges == ()
    graph = enumerate_syt((2, 1))
    assert graph.size == 2
    assert graph.edges == ((0, 1, 2),)


def test_syt_count_matches_enumeration():
    for n in range(1, 9):
        for shape in enumerate_partitions(n):
            assert enumerate_syt(shape).size == syt_count(shape)


def test_syt_count_is_the_hook_formula():
    # n! / prod(hooks) is the reference for the count read off the
    # cyclotomic multiplicities, and for the record's v2 of it.
    shapes = [()] + [shape for n in range(1, 21) for shape in enumerate_partitions(n)]
    assert len(shapes) == 2714
    for shape in shapes:
        count = factorial(sum(shape)) // prod(hook_lengths(shape).values())
        assert syt_count(shape) == count, shape
        assert shape_record(shape).count_v2 == (count & -count).bit_length() - 1, shape


def test_syt_count_of_large_shapes_is_pinned():
    assert syt_count((100000, 1)) == 100000
    assert syt_count((2000, 2000)) == comb(4000, 2000) // 2001


def _count_off_by_one(monkeypatch, shape, d):
    """The counts of `tableaux` read a record of `shape` with m_d one too large."""
    real = tableaux.shape_record

    def record(s):
        found = real(s)
        if s != shape:
            return found
        multiplicities = tuple((e, m + (e == d)) for e, m in found.multiplicities)
        return found._replace(multiplicities=multiplicities)

    monkeypatch.setattr(tableaux, "shape_record", record)
    for cache in (tableaux._build_graph, hecke._lattice_product, gl.unipotent_row):
        cache.cache_clear()


def test_counts_from_the_record_are_checked(monkeypatch, capsys):
    # (2, 2) has D(x) = x^2 Phi_4(x) and 2 tableaux; m_4 = 2 claims 4. The
    # gate still passes (v2 stays 1), and every independent check refuses.
    _count_off_by_one(monkeypatch, (2, 2), 4)
    assert syt_count((2, 2)) == 4
    with pytest.raises(InvariantViolation, match="enumerated 2 tableaux .* says 4"):
        enumerate_syt((2, 2))
    with pytest.raises(InvariantViolation, match="2 paths, hook formula says 4"):
        hecke.det_poly_factored((2, 2))
    result = gl.unipotent_determinant((2, 2), 5)
    with pytest.raises(InvariantViolation, match="q-1 does not divide"):
        result.degree
    for argv in (["det-unipotent", "--shape", "2,2", "--q", "5"], ["syt", "--shape", "2,2"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("invariant violation:"), argv


def test_sweeps_form_no_count(monkeypatch):
    # Sweep rows read the parity of the count from the record: no row
    # forms a count, for its degree or for the GF(2) walk.
    monkeypatch.setattr(hecke, "syt_count", lambda shape: pytest.fail(f"counted {shape}"))
    hecke._lattice_product.cache_clear()
    gl.unipotent_row.cache_clear()
    for report in (parker.verify_parker_symmetric(9),
                   parker.verify_parker_unipotent(9, [3, 5, 9])):
        assert report.ok and report.checked > 0


def test_rsk_mass_identity():
    for n in range(1, 9):
        total = sum(enumerate_syt(shape).size ** 2 for shape in enumerate_partitions(n))
        assert total == factorial(n)


def _tableau_search(shape):
    """The breadth-first search over rows, the reference for `enumerate_syt`.

    Returns the tableaux (as rows) in discovery order, the edges and the
    distances. It reads no content vector.
    """
    root = _row_filling(shape)
    nodes, index, dist, edges = [root], {root: 0}, [0], []
    head = 0
    while head < len(nodes):
        for k in range(1, sum(shape)):
            u = _swap(nodes[head], k)
            if u is None:
                continue
            at = index.get(u)
            if at is None:
                index[u] = at = len(nodes)
                nodes.append(u)
                dist.append(dist[head] + 1)
                edges.append((head, at, k))
            elif dist[at] == dist[head] + 1:
                edges.append((head, at, k))
        head += 1
    return nodes, tuple(edges), tuple(dist)


def test_content_graph_matches_the_tableau_search():
    # Swapping contents that differ by at least 2 walks the same graph as
    # swapping entries of tableaux, and `nodes` rebuilds every tableau.
    for n in range(1, 10):
        for shape in enumerate_partitions(n):
            nodes, edges, distances = _tableau_search(shape)
            graph = enumerate_syt(shape)
            assert list(graph.nodes) == nodes, shape
            assert graph.edges == edges and graph.distances == distances, shape
            assert list(graph.contents) == [_contents(t) for t in nodes], shape


def test_edges_change_distance_by_one():
    for shape in [(3, 1, 1), (2, 2, 1), (3, 2), (4, 2)]:
        graph = enumerate_syt(shape)
        for lo, hi, _ in graph.edges:
            assert graph.distances[hi] - graph.distances[lo] == 1


# --- independent permutation oracle -----------------------------------------

def _permutation_of(t, root):
    """w with w . root = t, as a value map tuple."""
    at = _positions(root)
    return tuple(t[at[value][0]][at[value][1]] for value in range(1, len(at) + 1))


def _inversions(perm):
    return sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )


def test_distance_equals_coxeter_length():
    for n in range(2, 7):
        for shape in enumerate_partitions(n):
            graph = enumerate_syt(shape)
            root = graph.nodes[0]
            for idx, t in enumerate(graph.nodes):
                assert graph.distances[idx] == _inversions(_permutation_of(t, root))


def test_tableau_word_examples():
    assert tableau_word((0, 1, 2, -1, -2)) == ()  # the row-filling tableau of (3, 1, 1)
    assert tableau_word((0, 1, -1, 2, -2)) == (3,)  # ((1, 2, 4), (3,), (5,))
    word = tableau_word((0, -1, 1, 2, -2))  # ((1, 3, 4), (2,), (5,))
    assert len(word) == 2 and set(word) == {2, 3}
    with pytest.raises(ValueError, match="extends no standard tableau"):
        tableau_word((0, -1, 0))


@given(shapes())
def test_tableau_word_reconstructs_tableau(shape):
    graph = enumerate_syt(shape)
    for contents, t, distance in zip(graph.contents, graph.nodes, graph.distances):
        word = tableau_word(contents)
        assert len(word) == distance  # reduced
        current = _row_filling(shape)
        for k in reversed(word):
            current = _swap(current, k)
            assert current is not None
        assert current == t


def test_tableau_word_needs_no_graph(monkeypatch):
    # (6,4,3,2,1) has 1153152 tableaux, past MAX_TABLEAUX; the word of its
    # column-filling tableau is read off its contents and still rebuilds it.
    shape = (6, 4, 3, 2, 1)
    assert syt_count(shape) > tableaux.MAX_TABLEAUX
    monkeypatch.setattr(tableaux, "enumerate_syt", lambda shape: pytest.fail("enumerated"))
    monkeypatch.setattr(tableaux, "_build_graph", lambda shape: pytest.fail("graph built"))
    columns = _row_filling(conjugate_partition(shape))
    t = tuple(tuple(column[i] for column in columns if i < len(column)) for i in range(len(shape)))
    current = _row_filling(shape)
    for k in reversed(tableau_word(_contents(t))):
        current = _swap(current, k)
        assert current is not None
    assert current == t


def test_size_guard(monkeypatch):
    # The guard counts tableaux, not cells: one long row is cheap at any n,
    # while (6,4,3,2,1) has 1153152 tableaux and is refused before any build.
    assert enumerate_syt((17,)).size == 1
    monkeypatch.setattr(tableaux, "_build_graph", lambda shape: pytest.fail("graph built"))
    with pytest.raises(ResourceGuardError, match="1153152 tableaux"):
        enumerate_syt((6, 4, 3, 2, 1))


def test_conjugate_partition():
    assert conjugate_partition((3, 1, 1)) == (3, 1, 1)
    assert conjugate_partition((4, 2)) == (2, 2, 1, 1)
    assert conjugate_partition(()) == ()
