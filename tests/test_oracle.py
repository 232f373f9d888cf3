import dataclasses
from fractions import Fraction
from math import lcm

import pytest

from orthdet import oracle
from orthdet.errors import InvariantViolation, NotIrrPlusError, ResourceGuardError
from orthdet.hecke import hecke_determinant
from orthdet.intpoly import q_int
from orthdet.linalg import IntegerKernelSolver, bareiss_determinant, identity_matrix
from orthdet.oracle import (
    all_word_images,
    build_seminormal,
    determinant_via_gram,
    determinant_via_skew_element,
    gram_form,
    verify_relations,
    verify_trace_pairing,
    word_image,
)
from orthdet.squareclass import ONE, SquareClass, class_of_integer
from orthdet.tableaux import apply_simple_transposition, enumerate_partitions, syt_count


def test_one_dimensional_reps():
    rep = build_seminormal((4,), 3)
    assert all(word_image(rep, [i]) == (((0, 3 * rep.scale),),) for i in range(1, rep.n))
    rep = build_seminormal((1, 1, 1, 1), 5)
    assert all(word_image(rep, [i]) == (((0, -rep.scale),),) for i in range(1, rep.n))


def _seminormal_column(rep, i, idx):
    """Column idx of T_i as exact Fractions, from the seminormal formulas."""
    q, t = rep.q, rep.graph.nodes[idx]
    (r1, c1), (r2, c2) = t.position(i), t.position(i + 1)
    if r1 == r2:
        return {idx: Fraction(q)}
    if c1 == c2:
        return {idx: Fraction(-1)}

    def diag(d):
        return Fraction(q**d, q_int(d)(q)) if d > 0 else Fraction(-1, q_int(-d)(q))

    d = t.content(i + 1) - t.content(i)
    off = Fraction(1) if d > 0 else diag(d) * diag(-d) + q
    return {idx: diag(d), rep.graph.nodes.index(apply_simple_transposition(i, t)): off}


def test_generators_are_scaled_integer_columns():
    for n in range(1, 7):
        for shape in enumerate_partitions(n):
            for q in (1, 3, 5):
                rep = build_seminormal(shape, q)
                assert rep.scale == lcm(*(q_int(k)(q) ** 2 for k in range(2, n)))
                for i, columns in enumerate(rep.generators, start=1):
                    for idx, column in enumerate(columns):
                        assert all(type(v) is int for _, v in column)
                        expected = _seminormal_column(rep, i, idx)
                        assert dict(column) == {r: rep.scale * v for r, v in expected.items()}


def test_two_one_rep_satisfies_relations():
    # relation checks run eagerly inside the constructor
    rep = build_seminormal((2, 1), 3)
    assert rep.dim == 2
    assert word_image(rep, [1, 2, 1]) == word_image(rep, [2, 1, 2])


def test_quadratic_relation_check_rejects_wrong_q():
    rep = dataclasses.replace(build_seminormal((3, 1, 1), 3), q=5)
    with pytest.raises(InvariantViolation, match="quadratic relation fails"):
        verify_relations(rep)


def test_braid_relation_check_rejects_swapped_generators():
    rep = build_seminormal((3, 1, 1), 3)
    t1, t2, *rest = rep.generators
    with pytest.raises(InvariantViolation, match="braid relation fails"):
        verify_relations(dataclasses.replace(rep, generators=(t2, t1, *rest)))


def test_rep_dimension_matches_tableau_count():
    for n in range(2, 6):
        for shape in enumerate_partitions(n):
            for q in (1, 3):
                assert build_seminormal(shape, q).dim == syt_count(shape)


def test_generator_eigenvalue_multiplicities():
    # trace = a*q - b with a + b = dim, both non-negative integers
    for shape in [(2, 1), (2, 2), (3, 1, 1), (3, 2)]:
        for q in (1, 3, 5):
            rep = build_seminormal(shape, q)
            for i in range(1, rep.n):
                m = word_image(rep, [i])
                trace = Fraction(sum(v for c, col in enumerate(m) for r, v in col if r == c),
                                 rep.scale)
                a = Fraction(trace + rep.dim, q + 1)
                assert a.denominator == 1
                assert 0 <= a <= rep.dim


def test_word_image_identity_and_braid():
    rep = build_seminormal((2, 2), 7)
    assert word_image(rep, []) == identity_matrix(rep.dim) == tuple(
        ((b, 1),) for b in range(rep.dim)
    )
    assert word_image(rep, [1, 2, 1]) == word_image(rep, [2, 1, 2])
    with pytest.raises(ValueError):
        word_image(rep, [5])


def _reduced_word(perm):
    """A reduced word by bubble sort: perm = s_(word[0]) o ... o s_(word[-1])."""
    p, word = list(perm), []
    while descents := [k for k in range(len(p) - 1) if p[k] > p[k + 1]]:
        k = descents[0]
        word.append(k + 1)
        p[k], p[k + 1] = p[k + 1], p[k]
    return tuple(reversed(word))


def test_all_word_images_match_reduced_words():
    rep = build_seminormal((2, 1, 1), 3)
    images = all_word_images(rep)
    assert len(images) == 24
    for w, matrix in images.items():
        assert matrix == word_image(rep, _reduced_word(w))


def test_gram_form_trivial_rep():
    form = gram_form(build_seminormal((3,), 5))
    assert form.matrix == (((0, 1),),)
    assert form.determinant == 1


def test_gram_form_two_one_at_three():
    form = gram_form(build_seminormal((2, 1), 3))
    assert class_of_integer(form.determinant) == SquareClass(1, 39)
    # the solved form is diagonal in the seminormal basis
    assert dict(form.matrix[1]).get(0, 0) == dict(form.matrix[0]).get(1, 0) == 0


def _symmetric_solve_reference(rep):
    """The slow reference: solve transpose(M_i) X = X M_i on the dim(dim+1)/2 entries
    X[a][b], a <= b, of a symmetric X; the primitive solution, its first nonzero
    upper-triangle entry (row-major) positive, as columns."""
    dim = rep.dim
    var_of = {}
    for a in range(dim):
        for b in range(a, dim):
            var_of[(a, b)] = len(var_of)
    solver = IntegerKernelSolver(len(var_of))
    for columns in rep.generators:
        for a in range(dim):
            for b in range(a + 1, dim):
                # (M^T X - X M)[a,b] = sum_c M[c,a] X[c,b] - sum_c X[a,c] M[c,b]
                row = {}
                for c, val in columns[a]:
                    v = var_of[(c, b) if c <= b else (b, c)]
                    row[v] = row.get(v, 0) + val
                for c, val in columns[b]:
                    v = var_of[(a, c) if a <= c else (c, a)]
                    row[v] = row.get(v, 0) - val
                solver.add_equation(row)
    assert solver.corank == 1, (rep.shape, rep.q)
    vec = solver.kernel_vector()
    x = [[0] * dim for _ in range(dim)]
    for (a, b), v in var_of.items():
        x[a][b] = x[b][a] = vec[v]
    return tuple(tuple((r, row[c]) for r, row in enumerate(x) if row[c]) for c in range(dim))


def test_gram_form_matches_the_symmetric_solve():
    for n in range(2, 7):
        for shape in enumerate_partitions(n):
            if syt_count(shape) % 2:
                continue
            for q in (1, 3, 5):
                rep = build_seminormal(shape, q)
                form = gram_form(rep)
                assert form.matrix == _symmetric_solve_reference(rep), (shape, q)
                assert form.determinant == bareiss_determinant(form.matrix)


def _gram_fails(rep, message):
    with pytest.raises(InvariantViolation, match=message) as info:
        gram_form(rep)
    assert f"{rep.shape} at q={rep.q}" in str(info.value)


def test_gram_form_rejects_an_unreached_tableau():
    rep = build_seminormal((3, 1, 1), 3)
    edges = tuple(edge for edge in rep.graph.edges if edge[1] != 4)
    graph = dataclasses.replace(rep.graph, edges=edges)
    _gram_fails(dataclasses.replace(rep, graph=graph), "tableau 4 .* no edge from the root side")


def test_gram_form_rejects_swapped_generators():
    # The tree edges name s_1 and s_2, whose columns now hold the other partner.
    rep = build_seminormal((3, 1, 1), 3)
    t1, t2, *rest = rep.generators
    _gram_fails(dataclasses.replace(rep, generators=(t2, t1, *rest)), "nonzero multiple of e_")


def test_gram_form_rejects_a_two_dimensional_form_space():
    # With T_2 for both generators the tree still reaches the second tableau,
    # but every form diagonal in T_2's eigenbasis is invariant.
    rep = build_seminormal((2, 1), 3)
    t2 = rep.generators[1]
    _gram_fails(dataclasses.replace(rep, generators=(t2, t2)), "J_2 .* is not diagonal")


def test_gram_form_rejects_a_perturbed_entry():
    # The off-diagonal entry of s_2 at tableaux 1 and 2 of (3,1,1) grows by
    # one scale; the form the equations single out is then not invariant.
    # (A diagonal entry would not do: the form knows nothing of the relations.)
    rep = build_seminormal((3, 1, 1), 3)
    t1, t2, *rest = rep.generators
    (r, alpha), (p, off) = t2[1]
    assert (r, p) == (1, 2)
    t2 = t2[:1] + (((r, alpha), (p, off + rep.scale)),) + t2[2:]
    _gram_fails(dataclasses.replace(rep, generators=(t1, t2, *rest)), "not invariant under s_2")


def test_gram_form_rejects_a_degenerate_form():
    # A diagonal s_1 and a Jordan block s_2 (whose first column is the tree
    # edge) leave only diag(1, 0) invariant.
    rep = build_seminormal((2, 1), 3)
    diagonal = (((0, 2),), ((1, 3),))
    jordan = (((0, 5), (1, 1)), ((1, 5),))
    _gram_fails(dataclasses.replace(rep, generators=(diagonal, jordan)), "degenerate")


def test_jucys_murphy_diagonals_are_q_contents():
    # J_k e_t = q^k scale^(2(k-1)) [c_t(k)]_q e_t, with [c]_q = (q^c - 1)/(q - 1), c at q = 1.
    for n in range(1, 7):
        for shape in enumerate_partitions(n):
            for q in (1, 3, 5, 9):
                rep = build_seminormal(shape, q)
                labels = oracle._jucys_murphy_diagonals(rep)
                assert len(labels) == rep.dim
                for t, label in zip(rep.graph.nodes, labels):
                    expected = []
                    for k in range(2, n + 1):
                        c = t.content(k)
                        qc = c if q == 1 else (Fraction(q) ** c - 1) / (q - 1)
                        expected.append(q**k * rep.scale ** (2 * (k - 1)) * qc)
                    assert list(label) == expected, (shape, q, t)


def test_jucys_murphy_diagonals_refuse_scalar_generators():
    # Scalar generators give diagonal J_k that cannot tell the two tableaux apart.
    rep = build_seminormal((2, 1), 3)
    scalar = tuple(((c, 3 * rep.scale),) for c in range(rep.dim))
    rep = dataclasses.replace(rep, generators=(scalar, scalar))
    with pytest.raises(InvariantViolation, match="do not separate tableaux 0 and 1") as info:
        oracle._jucys_murphy_diagonals(rep)
    assert "(2, 1) at q=3" in str(info.value)


def test_gram_determinant_examples():
    assert ONE.contains(determinant_via_gram((3, 1, 1), 3))
    assert SquareClass(1, 39).contains(determinant_via_gram((2, 2), 3))
    assert SquareClass(1, 155).contains(determinant_via_gram((2, 1), 5))


def test_gram_reaches_the_largest_n9_modules():
    # Both have dim 216, the most of any n = 9 shape.
    for shape, q in [((4, 3, 1, 1), 3), ((4, 2, 2, 1), 9)]:
        assert hecke_determinant(shape, q).det_class.contains(determinant_via_gram(shape, q))


def test_gram_reaches_an_n10_module():
    # dim 450; every n = 10 module is within MAX_DIM.
    assert hecke_determinant((5, 3, 2), 3).det_class.contains(determinant_via_gram((5, 3, 2), 3))


def test_gram_rejects_odd_dimension(monkeypatch):
    # The tableau count refuses an odd shape before any matrix is built.
    monkeypatch.setattr(oracle, "build_seminormal", lambda shape, q: pytest.fail("built"))
    with pytest.raises(NotIrrPlusError):
        determinant_via_gram((2, 1, 1), 3)
    with pytest.raises(NotIrrPlusError):
        determinant_via_skew_element((3,), 3)


def test_gram_matches_formula_small_sweep():
    for n in range(2, 6):
        for shape in enumerate_partitions(n):
            if syt_count(shape) % 2:
                continue
            for q in (1, 3, 5):
                expected = hecke_determinant(shape, q).det_class
                assert expected.contains(determinant_via_gram(shape, q))


def test_skew_element_examples():
    assert SquareClass(1, 39).contains(determinant_via_skew_element((2, 2), 3, seed=0))
    assert ONE.contains(determinant_via_skew_element((3, 1, 1), 3, seed=1))
    assert SquareClass(1, 39).contains(determinant_via_skew_element((2, 1), 3, seed=2))
    assert SquareClass(1, 155).contains(determinant_via_skew_element((2, 1), 5, seed=0))


def test_skew_element_seed_reproducibility():
    a = determinant_via_skew_element((4, 1), 3, seed=11)
    b = determinant_via_skew_element((4, 1), 3, seed=11)
    assert a == b
    assert hecke_determinant((4, 1), 3).det_class.contains(a)


def test_skew_element_multiple_seeds_agree():
    expected = hecke_determinant((2, 1, 1, 1), 5).det_class
    for seed in (0, 1, 2):
        assert expected.contains(determinant_via_skew_element((2, 1, 1, 1), 5, seed=seed))


def test_skew_determinant_is_scale_power_times_rational_one():
    # 975 and 6182720 are the seed-0 determinants of the unscaled skew elements.
    for shape, q, unscaled in [((2, 2), 3, 975), ((3, 1, 1), 1, 6182720)]:
        rep = build_seminormal(shape, q)
        top = rep.n * (rep.n - 1) // 2
        det = determinant_via_skew_element(shape, q, seed=0)
        assert type(det) is int
        assert det == unscaled * rep.scale ** (top * rep.dim)


def test_skew_determinant_is_compared_without_factoring():
    # Its cofactor 2438439692342443 * 3490016066363837339396413891 is
    # beyond the rho budget, so classifying it raises FactorizationError.
    det = determinant_via_skew_element((3, 2, 1), 5, seed=0)
    assert hecke_determinant((3, 2, 1), 5).det_class.contains(det)


def test_trace_pairing():
    assert verify_trace_pairing(2, 3)
    assert verify_trace_pairing(3, 3)
    assert verify_trace_pairing(4, 5)
    assert verify_trace_pairing(4, 1)
    assert verify_trace_pairing(5, 3)
    with pytest.raises(ValueError):
        verify_trace_pairing(6, 3)
    with pytest.raises(ValueError):
        verify_trace_pairing(1, 3)


def test_trace_pairing_rejects_a_wrong_length(monkeypatch):
    # Every expected trace q^length(w) is off by a factor of q.
    length = oracle._perm_length
    monkeypatch.setattr(oracle, "_perm_length", lambda w: length(w) + 1)
    with pytest.raises(InvariantViolation, match="trace pairing fails"):
        verify_trace_pairing(3, 3)


def test_build_rejects_bad_q():
    with pytest.raises(ValueError):
        build_seminormal((2, 1), 0)


def test_build_guard_fires_before_enumeration(monkeypatch):
    # (4,3,2,1) is the largest n = 10 module (dim 768); (4,4,2,1) has dim 1320.
    assert syt_count((4, 4, 2, 1)) > oracle.MAX_DIM >= syt_count((4, 3, 2, 1))
    monkeypatch.setattr(oracle, "enumerate_syt", lambda shape: pytest.fail("enumerated"))
    with pytest.raises(ResourceGuardError, match="oracle limit"):
        build_seminormal((4, 4, 2, 1), 3)


def test_skew_guard_fires_before_word_images(monkeypatch):
    # (4,1,1,1) is the largest n = 7 store (5040 * 20^2); (4,4) the smallest
    # even n = 8 one (40320 * 14^2).
    assert 40320 * syt_count((4, 4)) ** 2 > oracle.MAX_SKEW_ENTRIES
    assert oracle.MAX_SKEW_ENTRIES >= 5040 * syt_count((4, 1, 1, 1)) ** 2
    monkeypatch.setattr(oracle, "build_seminormal", lambda shape, q: pytest.fail("built"))
    monkeypatch.setattr(oracle, "all_word_images", lambda rep: pytest.fail("images built"))
    with pytest.raises(ResourceGuardError, match="skew limit"):
        determinant_via_skew_element((4, 4), 3)
