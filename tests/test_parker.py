import pytest

from orthdet import gl, hecke, tableaux
from orthdet.hecke import QIntProduct, det_poly_factored
from orthdet.parker import (
    ParityReport,
    lemma_parity_check,
    parity_bridge_check,
    verify_parker_sign_pairs,
    verify_parker_symmetric,
    verify_parker_unipotent,
)
from orthdet.squareclass import Parity, class_of_integer, parity_of_integer


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
    assert sweep(min_n_max, [3]).ok


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


@pytest.mark.parametrize("q", [4, 15, 3])
@pytest.mark.parametrize(
    "sweep", [verify_parker_unipotent, verify_parker_sign_pairs], ids=["unipotent", "sign-pair"]
)
def test_sweep_rejects_bad_q(sweep, q):
    with pytest.raises(ValueError):
        sweep(5, [3, q])


def test_unipotent_sweep_computes_hooks_once_per_shape(monkeypatch):
    hook_lengths = tableaux.hook_lengths
    shapes = []

    def counting_hook_lengths(shape):
        shapes.append(tuple(shape))
        return hook_lengths(shape)

    monkeypatch.setattr(tableaux, "hook_lengths", counting_hook_lengths)
    tableaux.hook_record.cache_clear()
    hecke._det_poly_factored.cache_clear()
    hecke._det_poly_reduced.cache_clear()
    gl._shape_parities.cache_clear()
    gl._unipotent_row.cache_clear()
    report = verify_parker_unipotent(8, [3, 5, 7])
    assert report.ok and report.checked > len(set(shapes)) > 0
    assert len(shapes) == len(set(shapes))


def test_unipotent_sweep_evaluates_degrees_once_per_shape(monkeypatch):
    # Twenty odd q: rows come from the q-free shape records, so the exact
    # degree is evaluated once per shape (at q = 3), not once per (shape, q).
    degree_and_exponent = gl._degree_and_exponent
    calls = []

    def counting(shape, q):
        calls.append(shape)
        return degree_and_exponent(shape, q)

    monkeypatch.setattr(gl, "_degree_and_exponent", counting)
    gl._shape_parities.cache_clear()
    gl._unipotent_row.cache_clear()
    q_values = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49, 53, 59]
    report = verify_parker_unipotent(8, q_values)
    assert report.ok and report.checked > len(calls) > 0
    assert len(calls) == len(set(calls))


def test_sweeps_never_run_the_full_product(monkeypatch):
    # Rows and printed witnesses read the GF(2) walk's product only.
    monkeypatch.setattr(hecke, "_det_poly_factored", lambda shape: pytest.fail("full product"))
    hecke._det_poly_reduced.cache_clear()
    reports = [verify_parker_symmetric(8, witness_limit=100),
               verify_parker_unipotent(6, [3, 9], witness_limit=100),
               verify_parker_sign_pairs(5, [5], witness_limit=100)]
    for report in reports:
        assert report.ok and report.checked > 0
        assert [w.to_json() for w in report.witnesses]
    assert parity_bridge_check((6, 5, 4, 3, 2), 3)


def test_report_json():
    report = verify_parker_unipotent(4, [3])
    data = report.to_json()
    assert data["family"] == "unipotent"
    assert data["ok"] is True
    assert data["failures"] == []
    assert data["checked"] == report.checked
