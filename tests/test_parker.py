import json
import pytest

from orthdet import gl, hecke, parker, tableaux
from orthdet.cli import main
from orthdet.errors import InvariantViolation, NotIrrPlusError
from orthdet.hecke import QIntProduct, det_poly_factored
from orthdet.parker import (
    ParityReport,
    ParityWitness,
    lemma_parity_check,
    lemma_parity_walk,
    parity_bridge_check,
    verify_parker_sign_pairs,
    verify_parker_symmetric,
    verify_parker_unipotent,
)
from orthdet.squareclass import Parity, class_of_integer, parity_of_integer, two_adic_valuation


def test_lemma_examples():
    # c=1, q=5: 1*3 = 3 odd, [1]_5 [3]_5 = 31 odd
    assert lemma_parity_check(1, 5)
    assert class_of_integer(31).parity is Parity.ODD
    # c=2, q=3: 8 -> class 2 even; 4 * 40 = 160 -> class 10 even
    assert lemma_parity_check(2, 3)
    assert class_of_integer(8).parity is Parity.EVEN
    assert class_of_integer(160) == class_of_integer(10)
    # c=4, q=3: 24 -> class 6 even; 40 * 364 = 14560 = 2^5*5*7*13 -> class 910 even
    assert lemma_parity_check(4, 3)
    assert class_of_integer(24).parity is Parity.EVEN
    assert class_of_integer(14560).squarefree == 910


def _lemma_reference(c, q):
    """The product [c]_q [c+2]_q formed and classified whole."""
    qc = (q**c - 1) // (q - 1)
    qc2 = (q ** (c + 2) - 1) // (q - 1)
    return parity_of_integer(c * (c + 2)) == parity_of_integer(qc * qc2)


def test_lemma_matches_the_full_product_reference():
    for q in (3, 5, 7, 9, 11, 27, 81):
        for c in range(1, 301):
            assert lemma_parity_check(c, q) is _lemma_reference(c, q), (c, q)


def test_lemma_falls_back_to_the_exact_power():
    # q = 1 mod 2^64, so q^e = 1 mod 2^64 and the residue says nothing:
    # v2(q^e - 1) = 64 + v2(e) comes from the exact power.
    q = 2**64 + 1
    for c in range(1, 41):
        assert lemma_parity_check(c, q) is _lemma_reference(c, q), c


def test_lemma_walk_agrees_with_the_point_check():
    for q in (3, 5, 7, 9, 11, 27, 81):
        points = [lemma_parity_check(c, q) for c in range(1, 301)]
        assert lemma_parity_walk(q, 1, 300) == points, q
        assert lemma_parity_walk(q, 150, 300) == points[149:], q


def test_lemma_walk_matches_exact_valuations_past_the_residue():
    # q^e = 1 mod 2^64 at every step, so each v2(q^e - 1) falls back to the exact power.
    q = 2**64 + 1
    expected = [
        (two_adic_valuation(c * (c + 2)) + two_adic_valuation(q**c - 1)
         + two_adic_valuation(q ** (c + 2) - 1)) % 2 == 0
        for c in range(1, 61)
    ]
    assert lemma_parity_walk(q, 1, 60) == expected


@pytest.mark.parametrize("last", [
    pytest.param(5.0, id="float"),
    pytest.param(True, id="bool"),
    pytest.param("9", id="string"),
    pytest.param(2, id="below-first"),
])
def test_lemma_walk_rejects_a_bad_last(last):
    # A walk from c = 3 ends at an int c >= 3, or checks nothing at all.
    with pytest.raises(ValueError, match="last c"):
        lemma_parity_walk(3, 3, last)
    assert lemma_parity_walk(3, 3, 3) == [lemma_parity_check(3, 3)]


def test_lemma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lemma_parity_check(0, 3)
    with pytest.raises(ValueError):
        lemma_parity_check(3, 4)
    with pytest.raises(ValueError):
        lemma_parity_check(3, 1)


def test_lemma_sweep():
    assert all(
        lemma_parity_check(c, q) for c in range(1, 501) for q in (3, 5, 7, 9, 11, 27, 81)
    )


def test_parity_bridge_examples():
    assert parity_bridge_check((3, 1, 1), 3)
    assert parity_bridge_check((2, 2), 5)
    with pytest.raises(ValueError):
        parity_bridge_check((2, 1, 1), 3)  # 3 tableaux: odd degree


def test_parity_bridge_beyond_evaluation():
    # n = 20: the multiplicities have about ten digits, so the value at q
    # could not be written down; the parity comes from the factors.
    assert det_poly_factored((6, 5, 4, 3, 2)).x_exp > 10**9
    for q in (3, 5, 7, 9):
        assert parity_bridge_check((6, 5, 4, 3, 2), q)


def test_parity_bridge_sweep():
    from orthdet.tableaux import enumerate_partitions, syt_count

    for n in range(2, 8):
        for shape in enumerate_partitions(n):
            if syt_count(shape) % 2 == 0:
                for q in (3, 5, 7):
                    assert parity_bridge_check(shape, q)


def test_unipotent_sweep_small():
    report = verify_parker_unipotent(5, [3])
    assert isinstance(report, ParityReport)
    assert report.ok
    assert report.checked == 5  # (2,1), (3,1,1), (2,2), (4,1), (2,1,1,1)
    by_shape = {w.shapes[0]: w for w in report.witnesses}
    assert by_shape[(3, 1, 1)].det_class.squarefree == 1  # 121 = 11^2
    assert by_shape[(3, 1, 1)].parity is Parity.ODD


def test_unipotent_sweep_at_a_large_q():
    # Classes here would need [k]_q factored near 10^66; parities need no factoring.
    report = verify_parker_unipotent(12, [1000003])
    assert report.ok
    assert report.checked == 162


def test_unipotent_sweep_vacuous():
    report = verify_parker_unipotent(2, [3])
    assert report.checked == 0
    assert report.ok


def test_unipotent_sweep_two_qs():
    report = verify_parker_unipotent(6, [3, 5], witness_limit=100)
    assert report.ok
    classes = {(w.shapes[0], w.q): w.det_class for w in report.witnesses}
    assert classes[((2, 2), 3)].squarefree == 39  # 3 * 13
    assert classes[((2, 2), 5)].squarefree == 155  # 5 * 31


def test_symmetric_sweep():
    report = verify_parker_symmetric(8)
    assert report.ok
    assert report.q_values == (1,)
    by_shape = {w.shapes[0]: w for w in report.witnesses}
    assert by_shape[(2, 2)].det_class.squarefree == 3


def test_symmetric_sweep_vacuous():
    assert verify_parker_symmetric(2).checked == 0


def test_sign_pair_sweep():
    report = verify_parker_sign_pairs(5, [3, 5])
    assert report.ok
    assert report.checked > 0
    assert all(w.parity is Parity.ODD for w in report.witnesses)


def _symmetric(n_max, q_values, **kwargs):
    return verify_parker_symmetric(n_max, **kwargs)


# Each family's sweep with a common (n_max, q_values) signature, and its
# smallest allowed n_max.
SWEEPS = [
    pytest.param(verify_parker_unipotent, 2, id="unipotent"),
    pytest.param(_symmetric, 2, id="symmetric"),
    pytest.param(verify_parker_sign_pairs, 1, id="sign-pair"),
]


@pytest.mark.parametrize("sweep, min_n_max", SWEEPS)
def test_sweep_rejects_small_n_max(sweep, min_n_max):
    with pytest.raises(ValueError):
        sweep(min_n_max - 1, [3])
    report = sweep(min_n_max, [3])
    assert report.ok and report.checked == 0  # every character of the scope is odd


@pytest.mark.parametrize("limit", [0, 3])
@pytest.mark.parametrize("sweep, min_n_max", SWEEPS)
def test_sweep_classifies_only_printed_rows(monkeypatch, sweep, min_n_max, limit):
    square_class = QIntProduct.square_class
    calls = []

    def counting_square_class(self, q):
        calls.append(q)
        return square_class(self, q)

    monkeypatch.setattr(QIntProduct, "square_class", counting_square_class)
    report = sweep(6, [3], witness_limit=limit)
    assert report.ok and report.checked > limit
    assert calls == []
    report.to_json()
    report.to_json()
    assert len(calls) == limit


BAD_Q = [
    pytest.param(sweep, 5, [3, q], id=f"{name}-{q}")
    for name, sweep in (("unipotent", verify_parker_unipotent),
                        ("sign-pair", verify_parker_sign_pairs))
    for q in (4, 15, 3)
] + [
    # No even row in the scope: a bad q after the refusals still raises.
    pytest.param(verify_parker_unipotent, 2, [3, 15], id="unipotent-all-odd"),
    pytest.param(verify_parker_sign_pairs, 1, [9, 21], id="sign-pair-all-odd"),
]


@pytest.mark.parametrize("sweep, n_max, q_values", BAD_Q)
def test_sweep_rejects_bad_q(sweep, n_max, q_values):
    with pytest.raises(ValueError):
        sweep(n_max, q_values)
    assert sweep(n_max, q_values[:1]).ok


@pytest.mark.parametrize("sweep", [verify_parker_unipotent, verify_parker_sign_pairs])
def test_sweep_rejects_an_empty_q_list(sweep):
    # A sweep over no q would pass while checking nothing.
    with pytest.raises(ValueError, match="at least one value of q"):
        sweep(5, [])


def _shapes_of(n):
    return [()] if n == 0 else tableaux.enumerate_partitions(n)


def _all_shapes(n_max):
    """The rows (shape,) of the unipotent and symmetric sweeps, odd degrees included."""
    return [(shape,) for n in range(2, n_max + 1) for shape in tableaux.enumerate_partitions(n)]


def _all_sign_pairs(n_max):
    """Every sign pair (lam, mu) with 1 <= |lam| + |mu| <= n_max, in sweep order."""
    return [
        (lam, mu)
        for n in range(1, n_max + 1) for ell in range(n + 1)
        for lam in _shapes_of(ell) for mu in _shapes_of(n - ell)
    ]


def _even_sign_pair_rows(pairs):
    """(pair, mask) for each pair that `gl` does not refuse, read pair by pair."""
    rows = []
    for lam, mu in pairs:
        try:
            rows.append(((lam, mu), gl.sign_pair_row(lam, mu)))
        except NotIrrPlusError:
            continue
    return rows


@pytest.fixture
def patch_row(monkeypatch):
    """Patch a row source where both `parker` and the public determinants read it."""
    def patch(module, name, row):
        monkeypatch.setattr(module, name, row)
        monkeypatch.setattr(parker, name, row)

    return patch


@pytest.fixture
def change_rows(patch_row):
    """Change the masks of chosen rows, in the formula and in a walk-based class source.

    `change(shape, mask)` gives a shape's new mask, or `mask` itself. The
    sweeps read the changed masks of `hecke.beta_row`; their printed and
    failing rows, and the public determinants of the per-q reference, read
    the changed walk masks of `module.name`, so the two agree and every
    failure can be printed. `calls` records every formula call.
    """
    def patch(module, name, change, calls=None):
        formula, walk = hecke.beta_row, getattr(module, name)

        def changed_formula(shape):
            if calls is not None:
                calls.append(shape)
            count_v2, mask = formula(shape)
            return count_v2, change(shape, mask) if count_v2 else mask

        patch_row(hecke, "beta_row", changed_formula)
        patch_row(module, name, lambda shape: change(shape, walk(shape)))

    return patch


@pytest.mark.parametrize("sweep, first_n", [
    pytest.param(verify_parker_unipotent, 2, id="unipotent"),
    pytest.param(verify_parker_sign_pairs, 0, id="sign-pair"),
])
def test_sweep_refuses_each_odd_row_once(monkeypatch, sweep, first_n):
    # The formula is the odd-degree gate, read once per shape: evenness
    # does not depend on q, so an odd shape is skipped, without raising, at
    # every q.
    real = parker.beta_row
    called, refused = [], []

    def recording(shape):
        called.append(shape)
        count_v2, mask = real(shape)
        if not count_v2:
            refused.append(shape)
        return count_v2, mask

    monkeypatch.setattr(parker, "beta_row", recording)
    report = sweep(8, [3, 5, 7])
    shapes = [shape for n in range(first_n, 9) for shape in _shapes_of(n)]
    assert report.ok and called == shapes
    assert refused == [shape for shape in shapes if tableaux.syt_count(shape) % 2]
    if sweep is verify_parker_unipotent:
        assert report.checked == 3 * (len(called) - len(refused))
    else:
        assert report.checked == 3 * len(_even_sign_pair_rows(_all_sign_pairs(8)))


def test_unipotent_sweep_computes_hooks_once_per_shape(monkeypatch):
    hook_lengths = tableaux.hook_lengths
    shapes = []

    def counting_hook_lengths(shape):
        shapes.append(tuple(shape))
        return hook_lengths(shape)

    monkeypatch.setattr(tableaux, "hook_lengths", counting_hook_lengths)
    tableaux.shape_record.cache_clear()
    hecke._lattice_product.cache_clear()
    gl.unipotent_row.cache_clear()
    # Rows read the formula, so only the printed rows' classes read hooks.
    report = verify_parker_unipotent(8, [3, 5, 7])
    assert report.ok and report.checked > 0 and shapes == []
    report.to_json()
    assert len(shapes) == len(set(shapes)) > 0


def test_unipotent_sweep_evaluates_no_degree(monkeypatch):
    # Twenty odd q: rows come from the q-free shape records, whose
    # q-exponent parity is read at x = 1, so no exact degree is evaluated.
    degree_and_exponent = gl._degree_and_exponent
    calls = []

    def counting(shape, q):
        calls.append((shape, q))
        return degree_and_exponent(shape, q)

    monkeypatch.setattr(gl, "_degree_and_exponent", counting)
    tableaux.shape_record.cache_clear()
    gl.unipotent_row.cache_clear()
    q_values = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49, 53, 59]
    report = verify_parker_unipotent(8, q_values)
    assert report.ok and report.checked > 0
    assert calls == []


def test_sweeps_never_run_the_full_product(monkeypatch):
    # Rows and printed witnesses read the GF(2) walk's mask only.
    walk = hecke._lattice_product
    walk.cache_clear()
    monkeypatch.setattr(hecke, "_lattice_product",
                        lambda shape, mod2: walk(shape, mod2) if mod2 else pytest.fail("full product"))
    reports = [verify_parker_symmetric(8, witness_limit=100),
               verify_parker_unipotent(6, [3, 9], witness_limit=100),
               verify_parker_sign_pairs(5, [5], witness_limit=100)]
    for report in reports:
        assert report.ok and report.checked > 0
        assert [w.to_json() for w in report.witnesses]
    assert parity_bridge_check((6, 5, 4, 3, 2), 3)


def test_sweep_rows_neither_walk_nor_read_shape_records(monkeypatch):
    # Rows read the formula; only the printed rows walk (GF(2) mode, on the
    # orientation `det_poly_reduced` shares with the conjugate, cached so
    # that (4, 1) serves (2, 1, 1, 1) as well) and read records.
    walk = hecke._lattice_product
    walk.cache_clear()
    walked = []

    def counting(shape, mod2):
        walked.append((shape, mod2))
        return walk(shape, mod2)

    monkeypatch.setattr(hecke, "_lattice_product", counting)
    records = tableaux.shape_record.cache_info()
    report = verify_parker_symmetric(14)
    assert report.ok and report.checked > 100 and len(report.witnesses) == 8
    assert walked == [] and tableaux.shape_record.cache_info() == records
    report.to_json()
    printed = [min(shape, tableaux.conjugate_partition(shape), key=lambda side: (len(side), side))
               for (shape,) in (w.shapes for w in report.witnesses)]
    assert walked == [(shape, True) for shape in printed]


def test_a_formula_row_the_walk_contradicts_is_refused(monkeypatch, capsys):
    # [2]_x in the formula's row of (2, 1) alone: the sweep fails there, and
    # printing the failure compares the formula's mask with the walk's.
    formula = parker.beta_row
    monkeypatch.setattr(parker, "beta_row", lambda shape: (
        (1, formula(shape)[1] ^ 1 << 2) if shape == (2, 1) else formula(shape)))
    report = verify_parker_unipotent(4, [3, 5])
    assert [(w.shapes, w.q, w.mask) for w in report.failures] == [(((2, 1),), 5, 1 << 2 | 1 << 3)]
    with pytest.raises(InvariantViolation, match=r"\(\(2, 1\),\): the beta-number formula "
                                                 r"gives QIntProduct\(\[2\] \[3\]\), "
                                                 r"the walk-based row QIntProduct\(\[3\]\)"):
        report.to_json()
    assert main(["verify-parker", "--n-max", "4", "--q", "3,5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("invariant violation:") and "[2] [3]" in err


def test_a_formula_row_without_a_parity_neutral_factor_is_refused(monkeypatch, capsys):
    # (2, 1) without its [3]: the mask's bits stay (0, 0), so the row is odd
    # at every odd q, but printing it compares the whole mask with the walk's.
    formula = parker.beta_row
    monkeypatch.setattr(parker, "beta_row",
                        lambda shape: (1, 0) if shape == (2, 1) else formula(shape))
    assert main(["verify-parker", "--n-max", "3", "--q", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("invariant violation:") and err.count("\n") == 1
    assert "formula gives QIntProduct(1), the walk-based row QIntProduct([3])" in err


def test_report_json():
    report = verify_parker_unipotent(4, [3])
    data = report.to_json()
    assert data["family"] == "unipotent"
    assert data["ok"] is True
    assert data["failures"] == []
    assert data["checked"] == report.checked


# v2(q + 1) = 2, 1, 3, 1, 2, 5, 4, 7, 6, 7, 1: every class from 1 to 7.
V2_QS = (3, 5, 7, 9, 11, 31, 47, 127, 191, 383, 997)


# The walk-based class source of each family's witnesses.
CLASS_SOURCES = {"unipotent": "unipotent_row", "sign-pair": "sign_pair_row",
                 "symmetric": "hecke_row"}


def _per_q_report(name, build_rows, determinant, n_max, q_values, witness_limit):
    """The report of a loop that runs the determinant and the parity at every (row, q).

    Its witnesses carry the masks of the walk's products with bit 1 (the
    x-power) cleared, where the sweep's carry those of the formula.
    """
    source = getattr(parker, CLASS_SOURCES[name])
    rows = []
    for shapes in build_rows(n_max):
        for q in q_values:
            try:
                symbolic = determinant(*shapes, q).symbolic
            except NotIrrPlusError:
                break
            rows.append((ParityWitness(shapes, q, symbolic.mask & ~2, source), symbolic))
    return ParityReport(
        family=name,
        n_max=n_max,
        q_values=tuple(q_values),
        checked=len(rows),
        failures=tuple(row for row, symbolic in rows
                       if symbolic.parity_at(row.q) is not Parity.ODD),
        witnesses=tuple(row for row, _ in rows[:witness_limit]),
    )


FAMILIES = [
    pytest.param(verify_parker_unipotent, "unipotent", _all_shapes, gl.unipotent_determinant,
                 (gl, "unipotent_row"), 10, V2_QS, id="unipotent"),
    pytest.param(verify_parker_sign_pairs, "sign-pair", _all_sign_pairs, gl.sign_pair_determinant,
                 (gl, "unipotent_row"), 7, V2_QS, id="sign-pair"),
    pytest.param(_symmetric, "symmetric", _all_shapes, hecke.hecke_determinant,
                 (hecke, "hecke_row"), 10, (1,), id="symmetric"),
]
FAMILY_ARGS = "sweep, name, build_rows, determinant, row_source, n_max, q_values"


@pytest.mark.parametrize(FAMILY_ARGS, FAMILIES)
def test_bits_driven_sweep_equals_the_per_q_loop(sweep, name, build_rows, determinant,
                                                 row_source, n_max, q_values):
    report = sweep(n_max, q_values, witness_limit=30)
    reference = _per_q_report(name, build_rows, determinant, n_max, q_values, 30)
    assert report.ok and report.checked > 30
    assert report == reference
    assert report.to_json() == reference.to_json()


@pytest.mark.parametrize(FAMILY_ARGS, FAMILIES)
def test_bits_driven_sweep_finds_the_per_q_failures(change_rows, sweep, name, build_rows,
                                                    determinant, row_source, n_max, q_values):
    # Every shape's row times [2]_x or [4]_x: even classes at odd or at even
    # v2(q + 1), so failures fall in every class and in most rows. The
    # sweep reads the changed formula, the public determinants the changed
    # walk-based row source.
    def perturbed(shape, mask):
        k = 2 + 2 * (len(shape) % 2)
        return mask ^ 1 << k

    change_rows(*row_source, perturbed)
    report = sweep(n_max, q_values, witness_limit=50)
    reference = _per_q_report(name, build_rows, determinant, n_max, q_values, 50)
    assert report.failures and report == reference
    assert report.to_json() == reference.to_json()
    if len(q_values) > 1:
        assert {two_adic_valuation(w.q + 1) for w in report.failures} == set(range(1, 8))


EVEN_ROWS = ((2, 1), (2, 2))


def _patch_even_rows(change_rows, symbolic, calls=None):
    """Patch the unipotent rows of (2, 1) and (2, 2) to the mask `symbolic`."""
    change_rows(gl, "unipotent_row",
                lambda shape, mask: symbolic if shape in EVEN_ROWS else mask, calls)


def _even_at_odd_v2(change_rows, calls=None):
    """Patch the rows (2, 1) and (2, 2) to [2]_x, even iff v2(q + 1) is odd."""
    _patch_even_rows(change_rows, 1 << 2, calls)


def test_a_constructed_even_row_fails_at_odd_v2(change_rows, capsys):
    _even_at_odd_v2(change_rows)
    report = verify_parker_unipotent(6, V2_QS)
    reference = _per_q_report("unipotent", _all_shapes, gl.unipotent_determinant, 6, V2_QS, 8)
    expected = [((shape,), q) for shape in EVEN_ROWS for q in V2_QS
                if two_adic_valuation(q + 1) % 2]
    assert [(w.shapes, w.q) for w in report.failures] == expected
    assert report == reference

    code = main(["verify-parker", "--n-max", "6", "--q", ",".join(map(str, V2_QS)),
                 "--format", "json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        f"PARITY FAILURE: {json.dumps(w.to_json(), sort_keys=True)}" for w in reference.failures
    ]


@pytest.mark.parametrize("mults, bits", [
    (((2, 1),), (1, 0)),
    (((4, 1),), (1, 1)),
    (((2, 1), (4, 1)), (0, 1)),
    (((2, 2), (4, 3)), (1, 1)),
    (((3, 1), (5, 1), (6, 1), (12, 1)), (0, 1)),
    (((8, 2),), (0, 0)),
])
def test_odd_q_bits_of_constructed_products(mults, bits):
    # The bits of a product's mask; its x (bit 1) never counts.
    assert hecke.mask_bits(QIntProduct(1, mults).mask) == bits


def test_a_constructed_row_with_bits_0_1_fails_at_every_odd_q(change_rows, patch_row, capsys):
    # [2]_x [4]_x has a = 0 and b = 1: even at every odd q, q = 1 included.
    product = 1 << 2 | 1 << 4
    _patch_even_rows(change_rows, product)
    report = verify_parker_unipotent(6, V2_QS)
    reference = _per_q_report("unipotent", _all_shapes, gl.unipotent_determinant, 6, V2_QS, 8)
    expected = [((shape,), q) for shape in EVEN_ROWS for q in V2_QS]
    assert [(w.shapes, w.q) for w in report.failures] == expected
    assert report == reference

    code = main(["verify-parker", "--n-max", "6", "--q", ",".join(map(str, V2_QS)),
                 "--format", "json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        f"PARITY FAILURE: {json.dumps(w.to_json(), sort_keys=True)}" for w in reference.failures
    ]

    # The formula is changed already; the symmetric rows' classes read `hecke_row`.
    real = hecke.hecke_row
    patch_row(hecke, "hecke_row", lambda shape: product if shape in EVEN_ROWS else real(shape))
    report = verify_parker_symmetric(6)
    assert [(w.shapes, w.q) for w in report.failures] == [((shape,), 1) for shape in EVEN_ROWS]
    assert [w.det_class.parity for w in report.failures] == [Parity.EVEN] * len(EVEN_ROWS)


@pytest.mark.parametrize("limit", [0, 3])
def test_a_failing_row_in_a_counted_sign_pair_block_is_enumerated(change_rows, limit):
    # [2]_x as the row of (2, 2) clears the (0, 0) bits of every block with
    # (2, 2) on a side: each is enumerated although the witnesses are full,
    # and its failures come in (row, q) order. With an even index (C(8, 4))
    # or an even partner the row stays trivial.
    change_rows(gl, "unipotent_row",
                lambda shape, mask: 1 << 2 if shape == (2, 2) else mask)
    report = verify_parker_sign_pairs(8, V2_QS, witness_limit=limit)
    reference = _per_q_report("sign-pair", _all_sign_pairs, gl.sign_pair_determinant,
                              8, V2_QS, limit)
    assert report == reference and len(report.witnesses) == limit
    failing = {w.shapes for w in report.failures}
    assert {((), (2, 2)), ((2, 2), ()), ((2, 2), (3,)), ((1, 1, 1), (2, 2))} <= failing
    assert ((2, 2), (4,)) not in failing and ((2, 2), (2, 1)) not in failing
    assert {two_adic_valuation(w.q + 1) % 2 for w in report.failures} == {1}


def test_sign_pair_blocks_match_the_per_pair_rows():
    # Each (n, l) block's count, bits and rows, from the formula's masks,
    # against the walk's masks of `gl.sign_pair_row` pair by pair, x cleared.
    keys = [(n, ell) for n in range(1, 13) for ell in range(n + 1)]
    blocks = list(parker._sign_pair_blocks(12))
    assert len(blocks) == len(keys)
    for (n, ell), (count, quiet, rows) in zip(keys, blocks):
        pairs = [(lam, mu) for lam in _shapes_of(ell) for mu in _shapes_of(n - ell)]
        expected = [(pair, mask & ~2) for pair, mask in _even_sign_pair_rows(pairs)]
        assert list(rows) == expected and count == len(expected), (n, ell)
        assert quiet is all(hecke.mask_bits(mask) == (0, 0) for _, mask in expected)


@pytest.mark.parametrize("pair", [
    pytest.param(((2, 1), (1,)), id="even-index"),
    pytest.param(((2, 2), (1,)), id="odd-index"),
])
def test_a_sign_pair_row_times_two_fails_on_that_pair_alone(patch_row, pair):
    # [2]_x times the row of one pair, read from `gl.sign_pair_row` by the
    # sweep (on the formula's masks) and by the determinant (on the walk's
    # masks): the sweep fails on that pair alone, at the q with
    # v2(q + 1) odd, in (row, q) order. C(4, 3) is even, so the first row
    # is trivial; C(5, 4) is odd and (1,) is odd, so the second is the
    # unipotent row of (2, 2).
    real = gl.sign_pair_row

    def perturbed(lam, mu, *sides):
        row = real(lam, mu, *sides)
        return row ^ 1 << 2 if (lam, mu) == pair else row

    patch_row(gl, "sign_pair_row", perturbed)
    report = verify_parker_sign_pairs(7, V2_QS, witness_limit=10**6)
    expected = [(pair, q) for q in V2_QS if two_adic_valuation(q + 1) % 2]
    assert [(w.shapes, w.q) for w in report.failures] == expected
    reference = _per_q_report("sign-pair", _all_sign_pairs, gl.sign_pair_determinant,
                              7, V2_QS, 10**6)
    assert report == reference


def test_sign_pair_sweep_counts_every_even_pair():
    # Blocks are counted without being enumerated once the witnesses are full.
    assert verify_parker_sign_pairs(10, [3, 5, 7, 9]).checked == 3872
    pairs = _all_sign_pairs(16)
    assert verify_parker_sign_pairs(16, [3]).checked == len(_even_sign_pair_rows(pairs))


def test_sweeps_build_no_result_records(monkeypatch):
    def refuse(self, *args, **kwargs):
        pytest.fail(f"built a {type(self).__name__}")

    for cls in (gl.GlDetResult, hecke.HeckeDetResult):
        monkeypatch.setattr(cls, "__init__", refuse)
    reports = [verify_parker_symmetric(9, witness_limit=20),
               verify_parker_unipotent(8, [3, 5], witness_limit=20),
               verify_parker_sign_pairs(7, [3, 5], witness_limit=20)]
    for report in reports:
        assert report.ok and report.checked > 20
        assert len([w.to_json() for w in report.witnesses]) == 20
    with pytest.raises(pytest.fail.Exception, match="built a GlDetResult"):
        gl.unipotent_determinant((2, 1), 3)


def test_parker_holds_at_every_odd_q_up_to_18():
    # A row is odd at every odd q iff its bits are (0, 0). Every sign-pair
    # row is trivial or a unipotent row, and the unipotent rows are these.
    shapes = [shape for n in range(2, 19) for shape in tableaux.enumerate_partitions(n)
              if tableaux.shape_record(shape).count_v2]
    assert len(shapes) == 1263
    for shape in shapes:
        assert hecke.mask_bits(hecke.det_poly_reduced(shape)) == (0, 0), shape
        assert hecke.mask_bits(gl.unipotent_row(shape)) == (0, 0), shape
    unipotent_rows = {gl.unipotent_row(shape) for shape in shapes}
    for (lam, mu), mask in _even_sign_pair_rows(_all_sign_pairs(8)):
        assert mask == 0 or mask in unipotent_rows, (lam, mu)


def test_sweep_runs_the_determinant_once_per_row(change_rows, monkeypatch):
    # Twenty odd q: one formula call per shape, and a witness built only
    # for a failure or a printed row.
    calls, built = [], []
    _even_at_odd_v2(change_rows, calls)

    def counting_witness(*args):
        built.append(ParityWitness(*args))
        return built[-1]

    monkeypatch.setattr(parker, "ParityWitness", counting_witness)
    q_values = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49, 53, 59]
    report = verify_parker_unipotent(8, q_values, witness_limit=3)
    assert calls == [shape for (shape,) in _all_shapes(8)]
    assert report.checked > 20 * len(EVEN_ROWS)
    assert len(report.failures) == 13 * len(EVEN_ROWS)  # v2(q + 1) is odd at 13 of the q
    assert len(report.witnesses) == 3
    assert {id(w) for w in report.failures + report.witnesses} == {id(w) for w in built}
    assert len(built) == 13 * len(EVEN_ROWS) + 1  # (2, 1) at 3 is printed but odd
