from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest

from orthdet import oracle, tableaux
from orthdet.cli import main
from orthdet.errors import InvariantViolation, NotIrrPlusError, ResourceGuardError
from orthdet.hecke import hecke_determinant
from orthdet.intpoly import q_int
from orthdet.linalg import IntegerKernelSolver, bareiss_determinant, mat_mul
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
from orthdet.tableaux import TableauGraph, enumerate_partitions, syt_count


def _replace(record, **changes):
    """A copy of a record with the given fields changed, the rest read by `__match_args__`."""
    return type(record)(**{name: getattr(record, name) for name in record.__match_args__} | changes)


def test_one_dimensional_reps():
    rep = build_seminormal((4,), 3)
    assert all(word_image(rep, [i]) == [[3 * rep.scale]] for i in range(1, rep.n))
    rep = build_seminormal((1, 1, 1, 1), 5)
    assert all(word_image(rep, [i]) == [[-rep.scale]] for i in range(1, rep.n))


def _positions(rows):
    """The 0-based (row, col) of every entry of a tableau given by its rows."""
    return {value: (r, c) for r, row in enumerate(rows) for c, value in enumerate(row)}


def _swap(rows, k):
    """The rows with entries k and k+1 swapped."""
    swapped = {k: k + 1, k + 1: k}
    return tuple(tuple(swapped.get(value, value) for value in row) for row in rows)


def _seminormal_column(rep, i, idx):
    """Column idx of T_i as exact Fractions, from the seminormal formulas on the tableau's rows."""
    q, t = rep.q, rep.graph.nodes[idx]
    at = _positions(t)
    (r1, c1), (r2, c2) = at[i], at[i + 1]
    if r1 == r2:
        return {idx: Fraction(q)}
    if c1 == c2:
        return {idx: Fraction(-1)}

    def diag(d):
        return Fraction(q**d, q_int(d)(q)) if d > 0 else Fraction(-1, q_int(-d)(q))

    d = (c2 - r2) - (c1 - r1)
    off = Fraction(1) if d > 0 else diag(d) * diag(-d) + q
    return {idx: diag(d), rep.graph.nodes.index(_swap(t, i)): off}


def test_generators_are_scaled_integer_columns():
    for n in range(1, 7):
        for shape in enumerate_partitions(n):
            for q in (1, 3, 5):
                rep = build_seminormal(shape, q)
                assert rep.scale == lcm(*(q_int(k)(q) ** 2 for k in range(2, n)))
                for i, (a, p, b) in enumerate(rep.generators, start=1):
                    assert all(type(v) is int for v in a + p + b)
                    image = word_image(rep, [i])
                    assert all(type(v) is int for row in image for v in row)
                    for idx in range(rep.dim):
                        expected = _seminormal_column(rep, i, idx)
                        column = {r: row[idx] for r, row in enumerate(image) if row[idx]}
                        assert column == {r: rep.scale * v for r, v in expected.items()}


def test_two_one_rep_satisfies_relations():
    # relation checks run eagerly inside the constructor
    rep = build_seminormal((2, 1), 3)
    assert rep.dim == 2
    assert word_image(rep, [1, 2, 1]) == word_image(rep, [2, 1, 2])


def _shifted(m, shift):
    """The rows of M + shift for a square M given by its rows."""
    return [[v + shift * (r == c) for c, v in enumerate(row)] for r, row in enumerate(m)]


def _product_form_relations(rep):
    """The reference: every relation as whole-matrix products of dense rows.

    For M = scale * T the quadratic one, (M + scale)(M - q scale) = 0, is checked
    in one product as (M - (q - 1) scale) M = q scale^2; the rest are homogeneous.
    """
    q, s = rep.q, rep.scale
    square = _shifted([[0] * rep.dim for _ in range(rep.dim)], q * s * s)
    generators = [word_image(rep, [i]) for i in range(1, rep.n)]
    for i, m in enumerate(generators, start=1):
        if mat_mul(_shifted(m, (1 - q) * s), m) != square:
            raise InvariantViolation(f"quadratic relation fails for s_{i} on {rep.shape} at q={q}")
    for i in range(len(generators) - 1):
        a, b = generators[i], generators[i + 1]
        if mat_mul(a, mat_mul(b, a)) != mat_mul(b, mat_mul(a, b)):
            raise InvariantViolation(
                f"braid relation fails for s_{i + 1}, s_{i + 2} on {rep.shape} at q={q}"
            )
    for i in range(len(generators)):
        for j in range(i + 2, len(generators)):
            a, b = generators[i], generators[j]
            if mat_mul(a, b) != mat_mul(b, a):
                raise InvariantViolation(
                    f"commutation fails for s_{i + 1}, s_{j + 1} on {rep.shape} at q={q}"
                )


def test_block_and_product_forms_accept_every_small_module():
    # build_seminormal runs the block form (`verify_relations`) and raises on a failure.
    for n in range(1, 8):
        for shape in enumerate_partitions(n):
            for q in (1, 3, 5):
                _product_form_relations(build_seminormal(shape, q))


def _with_entries(rep, i, t, **entries):
    """rep with the block arrays a, p, b of generator s_i changed at tableau t."""
    arrays = dict(zip("apb", map(list, rep.generators[i - 1])))
    for name, value in entries.items():
        arrays[name][t] = value
    generators = list(rep.generators)
    generators[i - 1] = tuple(tuple(arrays[name]) for name in "apb")
    return _replace(rep, generators=tuple(generators))


def _perturbed(rep):
    # Tableau 1 of (3,1,1) has partner 2 under s_2; its off-diagonal entry grows by one scale.
    _, p, b = rep.generators[1]
    assert p[1] == 2
    return _with_entries(rep, 2, 1, b=b[1] + rep.scale)


def _one_sided(rep):
    # The partner of tableau 1 under s_2 moves from tableau 2 to tableau 0.
    return _with_entries(rep, 2, 1, p=0)


def _zero_partner_entry(rep):
    # Tableau 1 keeps partner 2 under s_2, but its column no longer reaches it.
    return _with_entries(rep, 2, 1, b=0)


def _conjugated_by_a_sign(rep):
    # diag(-1 at tableau 2) conjugates s_2 on its block {2, p(2)}. Tableau 2 has no
    # partner under s_1 or s_3, which therefore commute with the sign, so the
    # quadratic and braid relations hold; it has one under s_4, so s_2 and s_4
    # no longer commute.
    _, p, b = rep.generators[1]
    u = p[2]
    return _with_entries(_with_entries(rep, 2, 2, b=-b[2]), 2, u, b=-b[u])


MUTATIONS = {
    "perturbed-off-diagonal": (_perturbed, "quadratic relation fails for s_2",
                               "quadratic relation fails for s_2"),
    "one-sided-partner": (_one_sided, "s_2 .* pairs tableaux \\(1, 0\\) one way only",
                          "quadratic relation fails for s_2"),
    "zero-partner-entry": (_zero_partner_entry, "s_2 .* pairs tableaux \\(1, 2\\) one way only",
                           "quadratic relation fails for s_2"),
    "conjugated-pair": (_conjugated_by_a_sign, "commutation fails for s_2, s_4",
                        "commutation fails for s_2, s_4"),
}


def _both_forms_reject(rep, block_match, product_match):
    with pytest.raises(InvariantViolation, match=block_match):
        verify_relations(rep)
    with pytest.raises(InvariantViolation, match=product_match):
        _product_form_relations(rep)


def test_quadratic_relation_check_rejects_wrong_q():
    rep = _replace(build_seminormal((3, 1, 1), 3), q=5)
    _both_forms_reject(rep, "quadratic relation fails", "quadratic relation fails")


def test_braid_relation_check_rejects_swapped_generators():
    rep = build_seminormal((3, 1, 1), 3)
    t1, t2, *rest = rep.generators
    rep = _replace(rep, generators=(t2, t1, *rest))
    _both_forms_reject(rep, "braid relation fails", "braid relation fails")


@pytest.mark.parametrize("mutate, block_match, product_match", MUTATIONS.values(), ids=MUTATIONS)
def test_block_and_product_forms_reject_each_mutation(mutate, block_match, product_match):
    _both_forms_reject(mutate(build_seminormal((3, 1, 1), 3)), block_match, product_match)


def test_no_certificate_multiplies_matrices(monkeypatch):
    # The relation, invariance and Jucys-Murphy checks run on the blocks alone:
    # no generator acts on a row. (`oracle` holds no product; see test_source_rules.)
    monkeypatch.setattr(oracle, "_act", lambda *args: pytest.fail("a generator acted on a row"))
    for n in range(2, 7):
        for shape in enumerate_partitions(n):
            if syt_count(shape) % 2 == 0:
                det = determinant_via_gram(shape, 3)
                assert hecke_determinant(shape, 3).det_class.contains(det), shape


def test_oracle_path_builds_no_tableau(monkeypatch, capsys):
    # The blocks are read from content vectors: no route reads `TableauGraph.nodes`.
    tableaux._build_graph.cache_clear()
    monkeypatch.setattr(TableauGraph, "nodes", property(lambda graph: pytest.fail("nodes read")))
    for q in (1, 3):
        assert build_seminormal((3, 2, 1), q).dim == 16
    expected = hecke_determinant((3, 2, 1), 3).det_class
    assert expected.contains(determinant_via_gram((3, 2, 1), 3))
    assert expected.contains(determinant_via_skew_element((3, 2, 1), 3))
    assert main(["oracle-check", "--n-max", "6"]) == 0
    assert main(["selftest"]) == 0
    capsys.readouterr()


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
                trace = Fraction(sum(row[c] for c, row in enumerate(m)), rep.scale)
                a = Fraction(trace + rep.dim, q + 1)
                assert a.denominator == 1
                assert 0 <= a <= rep.dim


def _identity(dim):
    return [[int(r == c) for c in range(dim)] for r in range(dim)]


def test_word_image_identity_and_braid():
    rep = build_seminormal((2, 2), 7)
    assert word_image(rep, []) == _identity(rep.dim)
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


def _product_along(word, matrices, dim):
    """The product of matrices[k] over k in word, left to right, by `linalg.mat_mul`."""
    product = _identity(dim)
    for k in word:
        product = mat_mul(product, matrices[k])
    return product


def test_all_word_images_match_reduced_words():
    # The reference shares no kernel with the oracle: scale * T_i comes from
    # the seminormal formulas as exact Fractions, multiplied by `mat_mul`.
    for shape, q in [((2, 1, 1), 3), ((3, 1), 1), ((2, 2), 5)]:
        rep = build_seminormal(shape, q)
        generators = {
            i: [[rep.scale * _seminormal_column(rep, i, c).get(r, 0) for c in range(rep.dim)]
                for r in range(rep.dim)]
            for i in range(1, rep.n)
        }
        images = all_word_images(rep)
        assert len(images) == 24
        for w, matrix in images.items():
            assert matrix == _product_along(_reduced_word(w), generators, rep.dim), (shape, q, w)
            assert all(type(v) is int for row in matrix for v in row)


def _inversions(w):
    return sum(a > b for i, a in enumerate(w) for b in w[i + 1:])


def test_trace_table_of_the_regular_module():
    # tau(T_w T_v), the identity coefficient, is q^l(w) if v = w^-1 and 0 otherwise.
    # Here it is read off products of left-regular matrices built from the
    # Hecke relations, independently of `verify_trace_pairing`.
    n, q = 3, 3
    perms = sorted(permutations(range(1, n + 1)), key=lambda w: (_inversions(w), w))
    index = {w: i for i, w in enumerate(perms)}
    left = {}
    for k in range(1, n):
        # Column j holds T_k T_w for w = perms[j]: T_(s_k w), plus (q - 1) T_w and a
        # factor q on T_(s_k w) when s_k w is shorter.
        m = [[0] * len(perms) for _ in perms]
        for j, w in enumerate(perms):
            sw = tuple(k + 1 if v == k else k if v == k + 1 else v for v in w)
            if _inversions(sw) > _inversions(w):
                m[index[sw]][j] = 1
            else:
                m[index[sw]][j], m[j][j] = q, q - 1
        left[k] = m
    regular = {w: _product_along(_reduced_word(w), left, len(perms)) for w in perms}
    for w in perms:
        for v in perms:
            inverse = tuple(sorted(range(1, n + 1), key=lambda i: w[i - 1]))
            expected = q ** _inversions(w) if v == inverse else 0
            assert mat_mul(regular[w], regular[v])[0][0] == expected, (w, v)
    assert verify_trace_pairing(n, q)


def test_gram_form_trivial_rep():
    form = gram_form(build_seminormal((3,), 5))
    assert form.diagonal == (1,)
    assert form.determinant == 1


def test_gram_form_two_one_at_three():
    form = gram_form(build_seminormal((2, 1), 3))
    assert class_of_integer(form.determinant) == SquareClass(1, 39)
    assert form.diagonal == (39, 16)


def _symmetric_solve_reference(rep):
    """The slow reference: solve M_i^T X = X M_i on the dim(dim+1)/2 entries
    X[a][b], a <= b, of a symmetric X; the primitive solution, its first nonzero
    upper-triangle entry (row-major) positive, as dense rows."""
    dim = rep.dim
    var_of = {}
    for a in range(dim):
        for b in range(a, dim):
            var_of[(a, b)] = len(var_of)
    solver = IntegerKernelSolver(len(var_of))
    for i in range(1, rep.n):
        m = word_image(rep, [i])
        for a in range(dim):
            for b in range(a + 1, dim):
                # (M^T X - X M)[a,b] = sum_c M[c,a] X[c,b] - sum_c X[a,c] M[c,b]
                row = {}
                for c in range(dim):
                    v = var_of[(c, b) if c <= b else (b, c)]
                    row[v] = row.get(v, 0) + m[c][a]
                    v = var_of[(a, c) if a <= c else (c, a)]
                    row[v] = row.get(v, 0) - m[c][b]
                solver.add_equation(row)
    assert solver.corank == 1, (rep.shape, rep.q)
    vec = solver.kernel_vector()
    x = [[0] * dim for _ in range(dim)]
    for (a, b), v in var_of.items():
        x[a][b] = x[b][a] = vec[v]
    return x


def test_gram_form_matches_the_symmetric_solve():
    for n in range(2, 7):
        for shape in enumerate_partitions(n):
            if syt_count(shape) % 2:
                continue
            for q in (1, 3, 5):
                rep = build_seminormal(shape, q)
                form = gram_form(rep)
                reference = _symmetric_solve_reference(rep)
                assert reference == [[d * (r == c) for c in range(rep.dim)]
                                     for r, d in enumerate(form.diagonal)], (shape, q)
                assert form.determinant == bareiss_determinant(reference)


def _gram_fails(rep, message):
    with pytest.raises(InvariantViolation, match=message) as info:
        gram_form(rep)
    assert f"{rep.shape} at q={rep.q}" in str(info.value)


def test_gram_form_rejects_an_unreached_tableau():
    rep = build_seminormal((3, 1, 1), 3)
    edges = tuple(edge for edge in rep.graph.edges if edge[1] != 4)
    graph = _replace(rep.graph, edges=edges)
    _gram_fails(_replace(rep, graph=graph), "tableau 4 .* no edge from the root side")


def test_gram_form_rejects_swapped_generators():
    # The tree edges name s_1 and s_2, whose arrays now hold the other partner.
    rep = build_seminormal((3, 1, 1), 3)
    t1, t2, *rest = rep.generators
    _gram_fails(_replace(rep, generators=(t2, t1, *rest)), "nonzero multiple of e_")


def test_gram_form_rejects_a_two_dimensional_form_space():
    # With T_2 for both generators the tree still reaches the second tableau,
    # but every form diagonal in T_2's eigenbasis is invariant.
    rep = build_seminormal((2, 1), 3)
    t2 = rep.generators[1]
    _gram_fails(_replace(rep, generators=(t2, t2)), "J_2 .* is not diagonal")


def test_gram_form_rejects_a_perturbed_entry():
    # The off-diagonal entry of s_2 at tableaux 1 and 2 of (3,1,1) grows by
    # one scale; the form the equations single out is then not invariant.
    # (A diagonal entry would not do: the form knows nothing of the relations.)
    _gram_fails(_perturbed(build_seminormal((3, 1, 1), 3)), "not invariant under s_2")


def test_gram_form_rejects_a_degenerate_form():
    # A diagonal s_1 and a Jordan block s_2 (whose first column is the tree
    # edge) leave only diag(1, 0) invariant. The Jordan block's partner map is
    # one-sided, so it is refused before any form is built: a form built on
    # involutive blocks has every diagonal entry nonzero.
    rep = build_seminormal((2, 1), 3)
    diagonal = ((2, 3), (0, 1), (0, 0))
    jordan = ((5, 5), (1, 1), (1, 0))
    _gram_fails(_replace(rep, generators=(diagonal, jordan)),
                "s_2 .* pairs tableaux \\(0, 1\\) one way only")


def test_jucys_murphy_diagonals_are_q_contents():
    # J_k e_t = q^k [c_t(k)]_q e_t, with [c]_q = (q^c - 1)/(q - 1), c at q = 1: no scale.
    for n in range(1, 7):
        for shape in enumerate_partitions(n):
            for q in (1, 3, 5, 9):
                rep = build_seminormal(shape, q)
                labels = oracle._jucys_murphy_diagonals(rep, oracle._blocks(rep))
                assert len(labels) == rep.dim
                for t, label in zip(rep.graph.nodes, labels):
                    at = _positions(t)
                    expected = []
                    for k in range(2, n + 1):
                        c = at[k][1] - at[k][0]
                        qc = c if q == 1 else (Fraction(q) ** c - 1) / (q - 1)
                        expected.append(q**k * qc)
                    assert list(label) == expected, (shape, q, t)


def test_jucys_murphy_diagonals_refuse_scalar_generators():
    # Scalar generators give diagonal J_k that cannot tell the two tableaux apart.
    rep = build_seminormal((2, 1), 3)
    scalar = ((3 * rep.scale,) * rep.dim, tuple(range(rep.dim)), (0,) * rep.dim)
    rep = _replace(rep, generators=(scalar, scalar))
    with pytest.raises(InvariantViolation, match="do not separate tableaux 0 and 1") as info:
        oracle._jucys_murphy_diagonals(rep, oracle._blocks(rep))
    assert "(2, 1) at q=3" in str(info.value)


def test_jucys_murphy_diagonals_refuse_an_inexact_division():
    # Diagonal generators 1 and 2 (scale 16): J_2 = (0 + 3 * 16) M_1 / 16^2 is not integral.
    rep = build_seminormal((2, 1), 3)
    diagonal = ((1, 2), (0, 1), (0, 0))
    rep = _replace(rep, generators=(diagonal, diagonal))
    with pytest.raises(InvariantViolation, match="J_2 on .* is not scale\\^2 times an integer"):
        oracle._jucys_murphy_diagonals(rep, oracle._blocks(rep))


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


def test_gram_reaches_an_n11_module():
    # dim 990; every n = 11 module is within MAX_DIM.
    assert hecke_determinant((6, 3, 2), 3).det_class.contains(determinant_via_gram((6, 3, 2), 3))


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
    # (5,3,2,1) is a largest n = 11 module (dim 2310); (7,3,1,1), with dim 2376,
    # is the first even n = 12 shape over the limit.
    assert syt_count((7, 3, 1, 1)) > oracle.MAX_DIM >= syt_count((5, 3, 2, 1))
    monkeypatch.setattr(oracle, "enumerate_syt", lambda shape: pytest.fail("enumerated"))
    with pytest.raises(ResourceGuardError, match="oracle limit"):
        build_seminormal((7, 3, 1, 1), 3)


def test_skew_guard_fires_before_word_images(monkeypatch):
    # (4,1,1,1) is the largest n = 7 store (5040 * 20^2); (4,4) the smallest
    # even n = 8 one (40320 * 14^2).
    assert 40320 * syt_count((4, 4)) ** 2 > oracle.MAX_SKEW_ENTRIES
    assert oracle.MAX_SKEW_ENTRIES >= 5040 * syt_count((4, 1, 1, 1)) ** 2
    monkeypatch.setattr(oracle, "build_seminormal", lambda shape, q: pytest.fail("built"))
    monkeypatch.setattr(oracle, "all_word_images", lambda rep: pytest.fail("images built"))
    with pytest.raises(ResourceGuardError, match="skew limit"):
        determinant_via_skew_element((4, 4), 3)
