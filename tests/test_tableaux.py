from math import factorial

import pytest
from hypothesis import given, strategies as st

from orthdet import tableaux
from orthdet.errors import ResourceGuardError
from orthdet.tableaux import (
    StandardTableau,
    apply_simple_transposition,
    check_partition,
    conjugate_partition,
    enumerate_partitions,
    enumerate_syt,
    hook_lengths,
    row_filling_tableau,
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


def test_rsk_mass_identity():
    for n in range(1, 9):
        total = sum(enumerate_syt(shape).size ** 2 for shape in enumerate_partitions(n))
        assert total == factorial(n)


def test_edges_change_distance_by_one():
    for shape in [(3, 1, 1), (2, 2, 1), (3, 2), (4, 2)]:
        graph = enumerate_syt(shape)
        for lo, hi, _ in graph.edges:
            assert graph.distances[hi] - graph.distances[lo] == 1


def test_graph_is_connected_through_parents():
    graph = enumerate_syt((3, 2, 1))
    for idx in range(graph.size):
        steps = 0
        at = idx
        while graph.parents[at] is not None:
            at = graph.parents[at][0]
            steps += 1
        assert at == 0
        assert steps == graph.distances[idx]


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
            root = graph.root
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
    for t in graph.nodes:
        current = graph.root
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
