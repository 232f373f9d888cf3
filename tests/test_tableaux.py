from math import comb, factorial, prod

import pytest
from hypothesis import given, strategies as st

from orthdet import gl, hecke, parker, tableaux
from orthdet.cli import main
from orthdet.errors import InvariantViolation, ResourceGuardError
from orthdet.tableaux import (
    StandardTableau,
    apply_simple_transposition,
    check_partition,
    conjugate_partition,
    enumerate_partitions,
    enumerate_syt,
    hook_lengths,
    row_filling_tableau,
    shape_record,
    syt_count,
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


def test_row_filling_examples():
    assert row_filling_tableau((4, 3, 2)).rows == ((1, 2, 3, 4), (5, 6, 7), (8, 9))
    assert row_filling_tableau((6,)).rows == ((1, 2, 3, 4, 5, 6),)
    assert row_filling_tableau((1, 1, 1)).rows == ((1,), (2,), (3,))


def test_tableau_validation():
    with pytest.raises(ValueError):
        StandardTableau(((2, 1),))  # row not increasing
    with pytest.raises(ValueError):
        StandardTableau(((1, 2), (4, 3)))  # second row not increasing
    with pytest.raises(ValueError):
        StandardTableau(((2, 3), (1,)))  # column not increasing
    with pytest.raises(ValueError):
        StandardTableau(((1, 2), (2,)))  # duplicate entry
    with pytest.raises(ValueError):
        StandardTableau(((1, 5), (2,)))  # entries not 1..n


def test_tableau_accessors():
    t = row_filling_tableau((3, 1, 1))
    assert t.shape == (3, 1, 1)
    assert t.n == 5
    assert t.position(4) == (2, 1)
    assert t.content(3) == 2
    assert t.content(4) == -1
    assert t.to_lists() == [[1, 2, 3], [4], [5]]


def test_apply_transposition_examples():
    t = row_filling_tableau((3, 1, 1))
    assert apply_simple_transposition(3, t).rows == ((1, 2, 4), (3,), (5,))
    # 1 and 2 always share a row or column, so s_1 never keeps standardness
    assert apply_simple_transposition(1, t) is None
    t22 = row_filling_tableau((2, 2))
    assert apply_simple_transposition(2, t22).rows == ((1, 3), (2, 4))


def test_apply_transposition_rejects_bad_index():
    t = row_filling_tableau((2, 1))
    with pytest.raises(ValueError):
        apply_simple_transposition(0, t)
    with pytest.raises(ValueError):
        apply_simple_transposition(3, t)


@given(shapes())
def test_s1_is_never_standard(shape):
    for t in enumerate_syt(shape).nodes:
        if t.n >= 2:
            assert apply_simple_transposition(1, t) is None


def test_swaps_equal_validated_tableaux():
    # Rebuilding each swap through the constructor gives the same rows and
    # positions.
    for n in range(1, 8):
        for shape in enumerate_partitions(n):
            for t in enumerate_syt(shape).nodes:
                for k in range(1, n):
                    u = apply_simple_transposition(k, t)
                    if u is not None:
                        v = StandardTableau(u.rows)
                        assert u.rows == v.rows and u._positions == v._positions


@given(shapes())
def test_transposition_is_involution_where_defined(shape):
    for t in enumerate_syt(shape).nodes:
        for k in range(1, t.n):
            u = apply_simple_transposition(k, t)
            if u is not None:
                assert apply_simple_transposition(k, u) == t


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
    """The breadth-first search over StandardTableau objects, the reference for `enumerate_syt`.

    Returns the tableaux in discovery order, the edges and the distances.
    """
    root = row_filling_tableau(shape)
    nodes, index, dist, edges = [root], {root: 0}, [0], []
    head = 0
    while head < len(nodes):
        for k in range(1, sum(shape)):
            u = apply_simple_transposition(k, nodes[head])
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
            assert [t.rows for t in graph.nodes] == [t.rows for t in nodes], shape
            assert graph.edges == edges and graph.distances == distances, shape
            for t, contents in zip(graph.nodes, graph.contents):
                assert tuple(t.content(k) for k in range(1, n + 1)) == contents, (shape, t)


def test_edges_change_distance_by_one():
    for shape in [(3, 1, 1), (2, 2, 1), (3, 2), (4, 2)]:
        graph = enumerate_syt(shape)
        for lo, hi, _ in graph.edges:
            assert graph.distances[hi] - graph.distances[lo] == 1


# --- independent permutation oracle -----------------------------------------

def _permutation_of(t, root):
    """w with w . root = t, as a value map tuple."""
    perm = [0] * t.n
    for value in range(1, t.n + 1):
        perm[value - 1] = t.rows[root.position(value)[0] - 1][root.position(value)[1] - 1]
    return tuple(perm)


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
    root = row_filling_tableau((3, 1, 1))
    assert tableau_word(root) == ()
    t134 = StandardTableau(((1, 3, 4), (2,), (5,)))
    assert tableau_word(StandardTableau(((1, 2, 4), (3,), (5,)))) == (3,)
    word = tableau_word(t134)
    assert len(word) == 2 and set(word) == {2, 3}


@given(shapes())
def test_tableau_word_reconstructs_tableau(shape):
    graph = enumerate_syt(shape)
    for idx, t in enumerate(graph.nodes):
        word = tableau_word(t)
        assert len(word) == graph.distances[idx]  # reduced
        current = graph.nodes[0]
        for k in reversed(word):
            current = apply_simple_transposition(k, current)
            assert current is not None
        assert current == t


def test_tableau_word_needs_no_graph(monkeypatch):
    # (6,4,3,2,1) has 1153152 tableaux, past MAX_TABLEAUX; the word of its
    # column-filling tableau is read off the entries and still rebuilds it.
    shape = (6, 4, 3, 2, 1)
    assert syt_count(shape) > tableaux.MAX_TABLEAUX
    monkeypatch.setattr(tableaux, "enumerate_syt", lambda shape: pytest.fail("enumerated"))
    monkeypatch.setattr(tableaux, "_build_graph", lambda shape: pytest.fail("graph built"))
    columns = row_filling_tableau(conjugate_partition(shape)).rows
    t = StandardTableau(tuple(
        tuple(column[i] for column in columns if i < len(column)) for i in range(len(shape))
    ))
    current = row_filling_tableau(shape)
    for k in reversed(tableau_word(t)):
        current = apply_simple_transposition(k, current)
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
