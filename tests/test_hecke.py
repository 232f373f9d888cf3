import pytest
from hypothesis import given, strategies as st

from orthdet import hecke, tableaux
from orthdet.errors import InvariantViolation, NotIrrPlusError, ResourceGuardError
from orthdet.hecke import (
    QIntProduct,
    det_poly_factored,
    det_poly_reduced,
    hecke_determinant,
    tableau_polynomials,
)
from orthdet.intpoly import IntPoly, q_int
from orthdet.squareclass import (
    ONE,
    Parity,
    SquareClass,
    class_of_integer,
    parity_of_integer,
    two_adic_valuation,
)
from orthdet.tableaux import (
    enumerate_partitions,
    enumerate_syt,
    shape_record,
    tableau_rows,
)


def _all_partitions(n_max):
    return [shape for n in range(1, n_max + 1) for shape in enumerate_partitions(n)]


@st.composite
def shapes(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    return draw(st.sampled_from(enumerate_partitions(n)))


def _gap(rows, k):
    """c_k - c_(k+1) - 1, read off the (row, col) cells of k and k+1 in a tableau's rows."""
    content = {value: j - i for i, row in enumerate(rows) for j, value in enumerate(row)}
    return content[k] - content[k + 1] - 1


def test_edge_content_gap_examples():
    # One edge above the root, a tableau's polynomial is the factor x [c+2] [c].
    for shape, k, gap in [((3, 1, 1), 3, 2), ((2, 1), 2, 1), ((2, 2), 2, 1)]:
        graph = enumerate_syt(shape)
        assert graph.edges[0] == (0, 1, k) and _gap(graph.nodes[0], k) == gap
        assert tableau_polynomials(shape)[1] == QIntProduct.from_edge(gap), shape


def test_edge_content_gap_rejects_non_standard_swap():
    # s_1 swaps two entries of one row: the swapped contents are no tableau,
    # and their gap -2 gives no edge factor.
    root = enumerate_syt((3, 1, 1)).contents[0]
    with pytest.raises(ValueError):
        tableau_rows((root[1], root[0]) + root[2:])
    with pytest.raises(ValueError, match="content gap"):
        QIntProduct.from_edge(root[0] - root[1] - 1)


def test_edge_content_gap_rejects_downward_edge():
    # Read off the upper end of the s_3 edge of (3, 1, 1), the gap is -4,
    # which gives no edge factor: the polynomials read the lower end.
    graph = enumerate_syt((3, 1, 1))
    assert graph.edges[0] == (0, 1, 3)
    upper = graph.contents[1]
    assert upper[2] - upper[3] - 1 == -4
    with pytest.raises(ValueError, match="content gap"):
        QIntProduct.from_edge(upper[2] - upper[3] - 1)


@given(shapes())
def test_every_graph_edge_has_positive_gap_upward_only(shape):
    # Read off the upper end, the gap of an edge is -c - 2 <= -3.
    graph = enumerate_syt(shape)
    for lo, hi, k in graph.edges:
        assert _gap(graph.nodes[lo], k) >= 1
        assert _gap(graph.nodes[hi], k) == -_gap(graph.nodes[lo], k) - 2


def test_tableau_polynomial_root_is_one():
    polys = tableau_polynomials((3, 2, 1))
    assert len(polys) == enumerate_syt((3, 2, 1)).size == 16
    assert polys[0] == QIntProduct.one()


def test_tableau_polynomial_paper_case():
    at = enumerate_syt((3, 1, 1)).nodes.index(((1, 2, 4), (3,), (5,)))
    a_t = tableau_polynomials((3, 1, 1))[at]
    assert a_t == QIntProduct(1, ((2, 1), (4, 1)))
    # x (x+1)^2 (x^2+1), multiplied out independently
    x = IntPoly.monomial(1)
    assert a_t.expand() == x * (x + 1) ** 2 * (IntPoly.monomial(2) + 1)


def test_tableau_polynomial_two_one():
    assert tableau_polynomials((2, 1))[1].expand() == IntPoly.monomial(1) * q_int(3)


def test_det_poly_examples():
    assert det_poly_factored((2, 1)).expand() == IntPoly([0, 1, 1, 1])
    assert det_poly_factored((6,)).expand() == IntPoly.one()
    assert det_poly_factored((1, 1, 1, 1)).expand() == IntPoly.one()
    assert det_poly_factored((3, 1, 1)) == QIntProduct(
        12, ((2, 6), (3, 6), (4, 6), (5, 3))
    )


def test_lattice_dp_equals_product_of_tableau_polynomials():
    # The graph walk is the independent reference for the lattice DP, and
    # for the beta-number formula on the 77 even shapes.
    hecke._lattice_product.cache_clear()
    shapes_checked = _all_partitions(10)
    even = 0
    for shape in shapes_checked:
        product = QIntProduct.one()
        for poly in tableau_polynomials(shape):
            product = product * poly
        assert det_poly_factored(shape) == product, shape
        count_v2, mask = hecke.beta_row(shape)
        if count_v2:
            assert mask == product.mask & ~2, shape
            even += 1
    assert len(shapes_checked) == 138 and even == 77
    assert det_poly_factored(()) == QIntProduct.one()


def test_det_poly_never_builds_the_graph(monkeypatch):
    hecke._lattice_product.cache_clear()
    monkeypatch.setattr(tableaux, "_build_graph", lambda shape: pytest.fail("graph built"))
    assert det_poly_factored((3, 1, 1)) == QIntProduct(12, ((2, 6), (3, 6), (4, 6), (5, 3)))
    # 1153152 tableaux: far beyond tableaux.MAX_TABLEAUX, a few hundred sub-diagrams.
    assert det_poly_factored((6, 4, 3, 2, 1)).x_exp > 0


def test_subdiagram_count_matches_brute_force():
    for shape in _all_partitions(8):
        contained = [
            mu
            for m in range(1, sum(shape) + 1)
            for mu in enumerate_partitions(m)
            if len(mu) <= len(shape) and all(a <= b for a, b in zip(mu, shape))
        ]
        assert hecke._subdiagram_count(shape) == len(contained) + 1, shape
    assert hecke._subdiagram_count(()) == 1
    assert hecke._subdiagram_count((3, 3)) == 10  # binomial(5, 2) lattice paths


def test_full_mode_precount_is_what_the_walk_keeps(monkeypatch):
    # 2 * (sub-diagrams - 1) * rows: at that limit the walk runs to the end,
    # one unit below it full mode refuses before walking.
    for shape in _all_partitions(7):
        units = 2 * (hecke._subdiagram_count(shape) - 1) * len(shape)
        hecke._lattice_product.cache_clear()
        monkeypatch.setattr(hecke, "MAX_SUBDIAGRAM_ROWS", units)
        det_poly_factored(shape)
        hecke._lattice_product.cache_clear()
        monkeypatch.setattr(hecke, "MAX_SUBDIAGRAM_ROWS", units - 1)
        with pytest.raises(ResourceGuardError, match=f"full lattice walk keeps {units} "):
            det_poly_factored(shape)


def test_lattice_guard(monkeypatch):
    # (12, 11, ..., 1) has 742900 sub-diagrams and 12 rows: 2 * 742899 * 12
    # units, refused before the walk counts or visits anything.
    staircase = tuple(range(12, 0, -1))
    hecke._lattice_product.cache_clear()
    with monkeypatch.context() as walk:
        walk.setattr(hecke, "syt_count", lambda shape: pytest.fail("walk started"))
        with pytest.raises(ResourceGuardError,
                           match="keeps 17829576 sub-diagram rows > limit 2000000"):
            det_poly_factored(staircase)
    # Full mode keeps 8 states of (2, 1) times 2 rows, and 10 of (2, 2).
    monkeypatch.setattr(hecke, "MAX_SUBDIAGRAM_ROWS", 16)
    hecke._lattice_product.cache_clear()
    with pytest.raises(ResourceGuardError):
        det_poly_factored((2, 2))
    assert det_poly_factored((2, 1)) == QIntProduct(1, ((3, 1),))


def test_lattice_invariant_checks_the_hook_formula(monkeypatch):
    hecke._lattice_product.cache_clear()
    monkeypatch.setattr(hecke, "syt_count", lambda shape: 3)
    with pytest.raises(InvariantViolation, match="hook formula says 3"):
        det_poly_factored((2, 2))


def test_walk_matches_the_reduced_full_product():
    # Every partition with n <= 14, odd tableau counts included.
    shapes = _all_partitions(14)
    assert len(shapes) == 507
    for shape in shapes:
        assert det_poly_reduced(shape) == det_poly_factored(shape).mask, shape
    assert det_poly_reduced(()) == 0


def test_from_mask_inverts_mask():
    # A mask is the squarefree product: x_exp mod 2 in bit 1, bit k for each odd [k].
    for shape in _all_partitions(8):
        full = det_poly_factored(shape)
        squarefree = QIntProduct(full.x_exp % 2, tuple((k, 1) for k, m in full.qint_mults if m % 2))
        assert QIntProduct.from_mask(full.mask) == squarefree, shape
        assert squarefree.mask == full.mask, shape
    assert QIntProduct(3, ((2, 2), (5, 3))).mask == 1 << 1 | 1 << 5
    assert QIntProduct.from_mask(1 << 1 | 1 << 2 | 1 << 7) == QIntProduct(1, ((2, 1), (7, 1)))
    assert QIntProduct.from_mask(0) == QIntProduct.one()
    for bad in (1, 1 << 3 | 1, -4, 8.0, True):
        with pytest.raises(ValueError):
            QIntProduct.from_mask(bad)


def test_conjugate_shapes_share_one_walk(monkeypatch):
    # Every even shape with n <= 14 and its conjugate, walked from cold
    # caches, give one mask; det_poly_reduced of either reads
    # only the walk of the canonical orientation: fewer rows, then the
    # lexicographically smaller.
    walk = hecke._lattice_product
    walked = []
    monkeypatch.setattr(hecke, "_lattice_product",
                        lambda shape, mod2: walked.append((shape, mod2)) or walk(shape, mod2))
    shapes = [shape for shape in _all_partitions(14) if tableaux.shape_record(shape).count_v2]
    assert len(shapes) == 302
    pairs = 0
    for shape in shapes:
        conjugate = tableaux.conjugate_partition(shape)
        canonical = min(shape, conjugate, key=lambda side: (len(side), side))
        pairs += shape != conjugate
        walk.cache_clear()
        assert walk(shape, True) == walk(conjugate, True), shape
        walked.clear()
        assert det_poly_reduced(shape) == det_poly_reduced(conjugate) == walk(shape, True)
        assert walked == [(canonical, True)] * 2, shape
    assert pairs == 280  # 140 conjugate pairs, each met from both sides
    # At odd degree the orientations differ, and each shape walks its own.
    assert det_poly_reduced((3, 1)) == 1 << 1 | 1 << 3  # x [3]
    assert det_poly_reduced((2, 1, 1)) == 1 << 1 | 1 << 2 | 1 << 4  # x [2] [4]


def test_walk_guard_counts_visited_states(monkeypatch):
    # (2, 1) keeps 5 states on its two passes, (2, 2) keeps 6, times 2 rows.
    monkeypatch.setattr(hecke, "MAX_SUBDIAGRAM_ROWS", 10)
    hecke._lattice_product.cache_clear()
    with pytest.raises(ResourceGuardError, match="walk passed 12 sub-diagram rows > limit 10"):
        det_poly_reduced((2, 2))
    assert det_poly_reduced((2, 1)) == 1 << 1 | 1 << 3


def test_walk_admits_shapes_beyond_the_lattice_guard():
    # (12, 11, ..., 1): 8914800 sub-diagram rows refuse the full product.
    staircase = tuple(range(12, 0, -1))
    mask = det_poly_reduced(staircase)
    assert not mask & 1 and QIntProduct.from_mask(mask).parity_at(1) is Parity.ODD
    with pytest.raises(ResourceGuardError, match="sub-diagram rows"):
        det_poly_factored(staircase)


def test_gf2_mode_admits_every_shape_full_mode_admits(monkeypatch):
    # One guard counts the states either mode keeps, and GF(2) mode keeps
    # only those of full mode with an odd count.
    monkeypatch.setattr(hecke, "MAX_SUBDIAGRAM_ROWS", 40)
    hecke._lattice_product.cache_clear()
    shapes = _all_partitions(8)
    admitted = []
    for shape in shapes:
        try:
            full = det_poly_factored(shape)
        except ResourceGuardError:
            continue
        admitted.append(shape)
        assert det_poly_reduced(shape) == full.mask, shape
    assert (6,) in admitted and len(admitted) < len(shapes)


def test_walk_checks_the_hook_formula_parity(monkeypatch):
    # A record claiming an odd count for (2, 2), which has two tableaux.
    hecke._lattice_product.cache_clear()
    real = hecke.shape_record
    monkeypatch.setattr(hecke, "shape_record", lambda shape: real(shape)._replace(count_v2=0))
    with pytest.raises(InvariantViolation, match="contradicts the hook formula's parity"):
        det_poly_reduced((2, 2))


def test_full_product_is_checked_against_the_walk(monkeypatch):
    good = hecke_determinant((2, 2), 5)
    assert good.symbolic == QIntProduct.from_mask(good.f_factored.mask)
    # A GF(2) walk that drops the x of (2, 2): its full product reduces to x [3].
    lattice_product = hecke._lattice_product
    monkeypatch.setattr(hecke, "_lattice_product", lambda shape, mod2: (
        1 << 3 if mod2 else lattice_product(shape, mod2)))
    with pytest.raises(InvariantViolation, match="GF\\(2\\) walk of \\(2, 2\\)"):
        det_poly_factored((2, 2))
    wrong = hecke_determinant((2, 2), 5)
    assert wrong.symbolic == QIntProduct(0, ((3, 1),))
    with pytest.raises(InvariantViolation, match="GF\\(2\\) walk of \\(2, 2\\)"):
        wrong.to_json()


def _partition_counts(n_max):
    """p(0), ..., p(n_max) by Euler's pentagonal recurrence, with no partition enumerated."""
    counts = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        j = 1
        while (pentagonal := j * (3 * j - 1) // 2) <= n:
            sign = 1 if j % 2 else -1
            counts[n] += sign * counts[n - pentagonal]
            if pentagonal + j <= n:
                counts[n] += sign * counts[n - pentagonal - j]
            j += 1
    return counts


def test_formula_gate_matches_the_records_and_macdonalds_count():
    # For every n <= 30, v2 of the tableau count from the beta-numbers (the
    # gate of `beta_row`) is the hook record's, and the even-degree shapes
    # number p(n) - 2^(k_1 + k_2 + ...) for n = 2^k_1 + 2^k_2 + ... (Macdonald 1971).
    counts = _partition_counts(30)
    assert counts[:8] == [1, 1, 2, 3, 5, 7, 11, 15] and counts[30] == 5604
    for n in range(1, 31):
        even = 0
        for shape in enumerate_partitions(n):
            count_v2 = hecke._beta_gate(shape)[3]
            assert count_v2 == shape_record(shape).count_v2, shape
            even += count_v2 > 0
        odd = 2 ** sum(k for k in range(n.bit_length()) if n >> k & 1)
        assert even == counts[n] - odd, n
    assert [hecke.beta_row(shape)[0] for shape in enumerate_partitions(12)] == [
        shape_record(shape).count_v2 for shape in enumerate_partitions(12)]


def test_formula_matches_the_reduced_walk():
    # On every even shape with n <= 14: the walk of the orientation that
    # `det_poly_reduced` shares with the conjugate, and that of the shape as given.
    checked = 0
    for shape in _all_partitions(14):
        count_v2, mask = hecke.beta_row(shape)
        if count_v2:
            assert mask == det_poly_reduced(shape) & ~2, shape
            assert mask == hecke._lattice_product(shape, True) & ~2, shape
            checked += 1
    assert checked == 302


def test_formula_examples():
    # (2, 1) has x [3] and (3, 1, 1) has [5]. The odd-degree shapes, the
    # empty one, (5), and (3, 1) and (2, 1, 1) (whose walks differ), get
    # v2 = 0 and no mask.
    assert hecke.beta_row(()) == hecke.beta_row((5,)) == (0, 0)
    assert hecke.beta_row((2, 1)) == (1, 1 << 3)
    assert hecke.beta_row((3, 1, 1)) == (1, 1 << 5)
    assert hecke.beta_row((3, 1)) == hecke.beta_row((2, 1, 1)) == (0, 0)
    assert hecke.beta_row((2, 2)) == (1, det_poly_reduced((2, 2)) & ~2)
    assert hecke.mask_bits(0) == (0, 0)
    assert hecke.mask_bits(1 << 2 | 1 << 4) == (0, 1)
    assert hecke.mask_bits(1 << 4 | 1 << 16 | 1 << 12) == (1, 1)
    assert hecke.mask_bits(1 << 1) == hecke.mask_bits(1 << 1 | 1 << 3) == (0, 0)  # x [3]
    for q in (1, 3, 5, 7, 9, 31, 127):
        for mults in (((2, 1),), ((4, 1),), ((2, 1), (4, 1)), ((6, 1), (8, 1))):
            for x_exp in (0, 1):
                product = QIntProduct(x_exp, mults)
                parity = hecke.odd_q_parity(hecke.mask_bits(product.mask), q)
                assert parity is product.parity_at(q) is parity_of_integer(product(q))


def test_full_product_is_checked_against_the_formula(monkeypatch):
    # A formula that adds [2] to (2, 2): the factors of `det-*` refuse it.
    formula = hecke.beta_row
    monkeypatch.setattr(hecke, "beta_row", lambda shape: (
        (1, formula(shape)[1] ^ 1 << 2) if shape == (2, 2) else formula(shape)))
    det_poly_factored((2, 1))
    with pytest.raises(InvariantViolation, match=r"formula of \(2, 2\) gives the q-integers "
                                                 r"\[2, 3\], the GF\(2\) walk \[3\]"):
        det_poly_factored((2, 2))
    with pytest.raises(InvariantViolation, match="beta-number formula of"):
        hecke_determinant((2, 2), 5).to_json()
    assert det_poly_factored((2, 1, 1)) == det_poly_factored((2, 1, 1))  # odd: not compared


def test_parity_at_matches_the_value():
    # The odd q have v2(q + 1) = 1, 2, 1, 3, 1, 2, 5, 4, 7, 6; at each the
    # bits (a, b) say the class is even iff b + a * v2(q + 1) is odd.
    for shape in _all_partitions(10):
        factored = det_poly_factored(shape)
        a, b = hecke.mask_bits(factored.mask)
        squarefree = QIntProduct.from_mask(factored.mask)
        for q in (1, 2, 3, 4, 5, 7, 9, 27, 31, 47, 127, 191):
            parity = parity_of_integer(factored(q))
            assert factored.parity_at(q) is squarefree.parity_at(q) is parity, (shape, q)
            if q % 2:
                even = (b + a * two_adic_valuation(q + 1)) % 2 == 1
                assert even is (parity is Parity.EVEN), (shape, q)
    with pytest.raises(ValueError):
        QIntProduct.one().parity_at(0)


def test_det_poly_reduced_class_is_single_q_int():
    assert det_poly_factored((3, 1, 1)).mask == 1 << 5
    reduced = QIntProduct.from_mask(det_poly_factored((3, 1, 1)).mask)
    assert reduced == QIntProduct(0, ((5, 1),))
    assert reduced.expand() == q_int(5)


def test_well_definedness_rewalk():
    # every incoming upward edge must reproduce the stored polynomial
    multi_incoming = 0
    for n in range(2, 7):
        for shape in enumerate_partitions(n):
            polys = tableau_polynomials(shape)
            graph = enumerate_syt(shape)
            incoming = [0] * graph.size
            for lo, hi, k in graph.edges:
                c = _gap(graph.nodes[lo], k)
                assert polys[lo] * QIntProduct.from_edge(c) == polys[hi]
                incoming[hi] += 1
            multi_incoming += sum(1 for count in incoming if count > 1)
    assert multi_incoming > 0  # the check above actually exercised merges


def test_hecke_determinant_examples():
    result = hecke_determinant((3, 1, 1), 3)
    assert result.det_class == ONE  # [5]_3 = 121 = 11^2
    assert result.degree == 6
    assert hecke_determinant((3, 1, 1), 5).det_class == class_of_integer(781)
    assert hecke_determinant((2, 2), 1).det_class == SquareClass(1, 3)
    assert hecke_determinant((2, 2), 5).det_class == SquareClass(1, 155)


def test_hecke_determinant_class_matches_direct_value():
    for shape in [(2, 1), (2, 2), (3, 1, 1), (4, 1)]:
        for q in (1, 3, 5, 7):
            factored = det_poly_factored(shape)
            assert factored.square_class(q) == class_of_integer(factored(q))


def test_hecke_determinant_rejects_odd_degree():
    with pytest.raises(NotIrrPlusError):
        hecke_determinant((2, 1, 1), 3)
    with pytest.raises(NotIrrPlusError):
        hecke_determinant((4,), 5)
    with pytest.raises(ValueError):
        hecke_determinant((2, 2), 0)


@given(shapes(), st.sampled_from([3, 5, 7, 9]))
def test_value_at_one_and_q_agree_mod_two(shape, q):
    factored = det_poly_factored(shape)
    assert (factored(1) - factored(q)) % 2 == 0


@given(shapes(), st.integers(1, 6))
def test_det_poly_positive_at_positive_arguments(shape, q):
    assert det_poly_factored(shape)(q) > 0


def test_qint_product_arithmetic():
    a = QIntProduct.from_edge(1)
    b = QIntProduct.from_edge(3)
    assert a * b == QIntProduct(2, ((3, 2), (5, 1)))
    assert QIntProduct.one()(9) == 1


def test_qint_product_json_round_trip():
    product = det_poly_factored((3, 1, 1))
    factors = product.factors_json()
    assert {f["type"] for f in factors} == {"x-power", "q-int"}
    x_exp = sum(f["mult"] for f in factors if f["type"] == "x-power")
    mults = tuple((f["k"], f["mult"]) for f in factors if f["type"] == "q-int")
    rebuilt = QIntProduct(x_exp, mults)
    assert rebuilt == product
    assert rebuilt.square_class(3) == product.square_class(3)


def test_result_json_and_lazy_expansion():
    result = hecke_determinant((2, 2), 5)
    data = result.to_json()
    assert data["class"] == {"sign": 1, "squarefree": "155", "parity": "odd"}
    assert data["factors"] == [
        {"type": "x-power", "mult": 1},
        {"type": "q-int", "k": 3, "mult": 1},
    ]
    assert result.f_factored.expand() == IntPoly([0, 1, 1, 1])
