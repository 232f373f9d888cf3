import dataclasses
from fractions import Fraction

import pytest

from orthdet import oracle
from orthdet.errors import InvariantViolation, NotIrrPlusError, ResourceGuardError
from orthdet.hecke import hecke_determinant
from orthdet.linalg import identity_matrix
from orthdet.oracle import (
    _perm_compose,
    _perm_inverse,
    _perm_length,
    _reduced_word,
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
from orthdet.tableaux import enumerate_partitions, syt_count


def test_one_dimensional_reps():
    rep = build_seminormal((4,), 3)
    assert all(word_image(rep, [i]) == ((Fraction(3),),) for i in range(1, rep.n))
    rep = build_seminormal((1, 1, 1, 1), 5)
    assert all(word_image(rep, [i]) == ((Fraction(-1),),) for i in range(1, rep.n))


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
                trace = sum(m[i][i] for i in range(rep.dim))
                a = Fraction(trace + rep.dim, q + 1)
                assert a.denominator == 1
                assert 0 <= a <= rep.dim


def test_word_image_identity_and_braid():
    rep = build_seminormal((2, 2), 7)
    assert word_image(rep, []) == identity_matrix(rep.dim)
    assert word_image(rep, [1, 2, 1]) == word_image(rep, [2, 1, 2])
    with pytest.raises(ValueError):
        word_image(rep, [5])


def test_all_word_images_match_reduced_words():
    rep = build_seminormal((2, 1, 1), 3)
    images = all_word_images(rep)
    assert len(images) == 24
    for w, matrix in images.items():
        assert matrix == word_image(rep, _reduced_word(w))


def test_reduced_word_helpers():
    w = (3, 1, 4, 2)
    word = _reduced_word(w)
    assert len(word) == _perm_length(w)
    built = tuple(range(1, 5))
    for k in reversed(word):
        swapped = tuple(k + 1 if v == k else (k if v == k + 1 else v) for v in built)
        built = swapped
    assert built == w
    assert _perm_compose(w, _perm_inverse(w)) == (1, 2, 3, 4)


def test_gram_form_trivial_rep():
    form = gram_form(build_seminormal((3,), 5))
    assert form.matrix == ((1,),)
    assert form.determinant == 1


def test_gram_form_two_one_at_three():
    form = gram_form(build_seminormal((2, 1), 3))
    assert class_of_integer(form.determinant) == SquareClass(1, 39)
    # the solved form is diagonal in the seminormal basis
    assert form.matrix[0][1] == form.matrix[1][0] == 0


def test_gram_determinant_examples():
    assert determinant_via_gram((3, 1, 1), 3) == ONE
    assert determinant_via_gram((2, 2), 3) == SquareClass(1, 39)
    assert determinant_via_gram((2, 1), 5) == SquareClass(1, 155)


def test_gram_rejects_odd_dimension():
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
                assert determinant_via_gram(shape, q) == expected


def test_skew_element_examples():
    assert determinant_via_skew_element((2, 2), 3, seed=0) == SquareClass(1, 39)
    assert determinant_via_skew_element((3, 1, 1), 3, seed=1) == ONE
    assert determinant_via_skew_element((2, 1), 3, seed=2) == SquareClass(1, 39)
    assert determinant_via_skew_element((2, 1), 5, seed=0) == SquareClass(1, 155)


def test_skew_element_seed_reproducibility():
    a = determinant_via_skew_element((4, 1), 3, seed=11)
    b = determinant_via_skew_element((4, 1), 3, seed=11)
    assert a == b == hecke_determinant((4, 1), 3).det_class


def test_skew_element_multiple_seeds_agree():
    for seed in (0, 1, 2):
        assert determinant_via_skew_element((2, 1, 1, 1), 5, seed=seed) == hecke_determinant(
            (2, 1, 1, 1), 5
        ).det_class


def test_trace_pairing():
    assert verify_trace_pairing(2, 3)
    assert verify_trace_pairing(3, 3)
    assert verify_trace_pairing(4, 5)
    assert verify_trace_pairing(4, 1)
    assert verify_trace_pairing(5, 3, max_length_sum=6)
    with pytest.raises(ValueError):
        verify_trace_pairing(6, 3)
    with pytest.raises(ValueError):
        verify_trace_pairing(1, 3)


def test_build_rejects_bad_q():
    with pytest.raises(ValueError):
        build_seminormal((2, 1), 0)


def test_build_guard_fires_before_enumeration(monkeypatch):
    # (4,3,1,1) is the largest n = 9 module (dim 216); (5,3,2) has dim 450.
    assert syt_count((5, 3, 2)) > oracle.MAX_DIM >= syt_count((4, 3, 1, 1))
    monkeypatch.setattr(oracle, "enumerate_syt", lambda shape: pytest.fail("enumerated"))
    with pytest.raises(ResourceGuardError, match="oracle limit"):
        build_seminormal((5, 3, 2), 3)
