import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from orthdet import cli, gl, hecke, oracle, parker
from orthdet.cli import main
from orthdet.hecke import QIntProduct
from orthdet.squareclass import Parity, SquareClass


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_det_unipotent_json(capsys):
    code, out, _ = run(capsys, "det-unipotent", "--shape", "3,1,1", "--q", "3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["class"] == {"sign": 1, "squarefree": "1", "parity": "odd"}
    assert data["parity"] == "odd"
    assert data["degree"] == "3510"
    assert data["symbolic"] == [{"type": "q-int", "k": 5, "mult": 1}]


def test_det_unipotent_rejects_odd_degree(capsys):
    code, _, err = run(capsys, "det-unipotent", "--shape", "1,1", "--q", "3")
    assert code == 1
    assert "odd" in err


def test_det_unipotent_rejects_bad_shape_and_q(capsys):
    assert run(capsys, "det-unipotent", "--shape", "1,2", "--q", "3")[0] == 1
    assert run(capsys, "det-unipotent", "--shape", "2,2", "--q", "4")[0] == 1
    assert run(capsys, "det-unipotent", "--shape", "2,2", "--q", "15")[0] == 1


def test_det_hecke_and_symmetric(capsys):
    code, out, _ = run(capsys, "det-hecke", "--shape", "2,2", "--q", "5",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["class"]["squarefree"] == "155"

    code, out, _ = run(capsys, "det-symmetric", "--shape", "2,2", "--format", "json")
    assert code == 0
    assert json.loads(out)["class"]["squarefree"] == "3"


def test_det_hecke_round_trip_recomputes_class(capsys):
    _, out, _ = run(capsys, "det-hecke", "--shape", "3,1,1", "--q", "7",
                    "--format", "json")
    data = json.loads(out)
    factors = data["factors"]
    assert {f["type"] for f in factors} == {"x-power", "q-int"}
    x_exp = sum(f["mult"] for f in factors if f["type"] == "x-power")
    mults = tuple((f["k"], f["mult"]) for f in factors if f["type"] == "q-int")
    rebuilt = QIntProduct(x_exp, mults)
    cls = rebuilt.square_class(data["q"])
    assert cls == SquareClass(data["class"]["sign"], int(data["class"]["squarefree"]))


def test_det_sgnpair(capsys):
    code, out, _ = run(capsys, "det-sgnpair", "--lambda", "2", "--mu", "2,2",
                       "--q", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["class"]["squarefree"] == "39"

    code, out, _ = run(capsys, "det-sgnpair", "--mu", "3,1,1", "--q", "3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["class"]["squarefree"] == "1"


def test_syt_reproduces_tableau_list(capsys):
    code, out, _ = run(capsys, "syt", "--shape", "3,1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 6
    assert [[1, 2, 4], [3], [5]] in data["tableaux"]
    assert "edges" not in data

    code, out, _ = run(capsys, "syt", "--shape", "3,1,1", "--graph", "--format", "json")
    data = json.loads(out)
    assert len(data["edges"]) == 6


def test_verify_parker_families(capsys):
    code, out, _ = run(capsys, "verify-parker", "--n-max", "5", "--q", "3",
                       "--jobs", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["checked"] == 5

    code, out, _ = run(capsys, "verify-parker", "--n-max", "6", "--family", "symmetric",
                       "--jobs", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out, _ = run(capsys, "verify-parker", "--n-max", "4", "--q", "3,5",
                       "--family", "sgnpair", "--jobs", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_parker_checks_classes_against_parities(capsys, monkeypatch):
    monkeypatch.setattr(QIntProduct, "parity_at", lambda self, q: Parity.EVEN)
    code, out, err = run(capsys, "verify-parker", "--n-max", "4", "--q", "3", "--jobs", "1",
                         "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("invariant violation:") and "contradicts its factors" in err


def test_det_unipotent_checks_degree_parity(capsys, monkeypatch):
    # A tableau count of 1 for (2,1), against 2, the value at x = 1 of its
    # degree polynomial: x - 1 cannot divide their difference.
    real = gl.hook_record
    monkeypatch.setattr(gl, "hook_record", lambda shape: (real(shape)[0], 1))
    # Entries cached by an earlier test would bypass the patched record.
    gl._shape_parities.cache_clear()
    gl._unipotent_row.cache_clear()
    code, out, err = run(capsys, "det-unipotent", "--shape", "2,1", "--q", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("invariant violation:") and "does not divide" in err


def test_det_unipotent_checks_class_against_parity(capsys, monkeypatch):
    monkeypatch.setattr(QIntProduct, "parity_at", lambda self, q: Parity.EVEN)
    code, out, err = run(capsys, "det-unipotent", "--shape", "3,1,1", "--q", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("invariant violation:") and "contradicts its factors" in err


def test_repeated_q_values_are_rejected(capsys):
    for command in ("verify-parker", "oracle-check"):
        code, out, err = run(capsys, command, "--n-max", "3", "--q", "3,3", "--format", "json")
        assert code == 1
        assert out == ""
        assert "distinct" in err


def test_verify_parker_rejects_negative_counts(capsys):
    code, out, err = run(capsys, "verify-parker", "--n-max", "4", "--q", "3",
                         "--witness-limit", "-1")
    assert code == 1
    assert out == ""
    assert "non-negative" in err
    # --jobs admits only 1: sweeps are serial.
    for value in ("0", "-1", "2"):
        with pytest.raises(SystemExit) as exc:
            main(["verify-parker", "--n-max", "4", "--q", "3", "--jobs", value])
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert "invalid choice" in captured.err


def test_verify_parker_is_serial_by_default(capsys):
    for family in ("unipotent", "symmetric", "sgnpair"):
        code, out, _ = run(capsys, "verify-parker", "--family", family, "--n-max", "5",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["ok"] is True


def test_import_leaves_the_pool_machinery_unloaded():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    code = ("import sys, orthdet.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["det-hecke", "--shape", "3,1,1", "--q", "5"],
    ["det-symmetric", "--shape", "3,1,1"],
    ["det-unipotent", "--shape", "3,1,1", "--q", "3"],
])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_det_output_checks_the_walk(capsys, monkeypatch, argv, fmt):
    # x * [5]: an extra x-power the full product of (3, 1, 1) does not have.
    monkeypatch.setattr(hecke, "_det_poly_reduced", lambda shape: QIntProduct(1, ((5, 1),)))
    # A row cached by an earlier test would bypass the patched walk, and a
    # row cached here would carry the wrong walk into later tests.
    gl._unipotent_row.cache_clear()
    try:
        code, out, err = run(capsys, *argv, "--format", fmt)
    finally:
        gl._unipotent_row.cache_clear()
    assert code == 2
    assert out == ""
    assert err.startswith("invariant violation:") and "GF(2) walk of (3, 1, 1)" in err


def test_walk_guard_exits_3(capsys, monkeypatch):
    # (2, 1) passes with its 5 states, (2, 2) needs 6.
    monkeypatch.setattr(hecke, "MAX_WALK_STATES", 5)
    hecke._det_poly_reduced.cache_clear()
    code, out, err = run(capsys, "verify-parker", "--family", "symmetric", "--n-max", "4")
    assert code == 3
    assert out == ""
    assert err.startswith("resource guard:") and "GF(2) walk passed" in err


def test_verify_parker_symmetric_rejects_q(capsys):
    code, out, err = run(capsys, "verify-parker", "--family", "symmetric", "--n-max", "4",
                         "--q", "4")
    assert code == 1
    assert out == ""
    assert "--q" in err


@pytest.mark.parametrize("jobs", [pytest.param([], id="default"),
                                  pytest.param(["--jobs", "1"], id="1")])
def test_verify_parker_rejects_q_on_the_rows(capsys, jobs):
    # Each row's determinant validates its own q.
    code, out, err = run(capsys, "verify-parker", "--family", "sgnpair", "--n-max", "5",
                         "--q", "3,15", *jobs)
    assert code == 1
    assert out == ""
    assert "prime power" in err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_parker_reports_a_parity_failure(capsys, monkeypatch, fmt):
    real = parker.unipotent_determinant

    def even_at_21(shape, q):
        if tuple(shape) != (2, 1):
            return real(shape, q)
        # [2]_q, which is 6 at q = 5: an even class.
        return SimpleNamespace(symbolic=QIntProduct(0, ((2, 1),)))

    monkeypatch.setattr(parker, "unipotent_determinant", even_at_21)
    code, out, err = run(capsys, "verify-parker", "--n-max", "3", "--q", "5", "--format", fmt)
    assert code == 2
    assert err.count("PARITY FAILURE:") == 1
    assert err.startswith("PARITY FAILURE:") and err.count("\n") == 1
    if fmt == "json":
        data = json.loads(out)
        assert data["ok"] is False
        assert [w["class"]["squarefree"] for w in data["failures"]] == ["6"]
    else:
        assert "failures: 1" in out


@pytest.mark.parametrize("argv, message", [
    (["det-unipotent", "--shape", "2,a", "--q", "3"], "comma-separated integers"),
    (["verify-parker", "--n-max", "4", "--q", "3,x"], "comma-separated integers"),
    (["det-hecke", "--shape", "2,2", "--q", "1"], "q >= 2"),
    (["syt", "--shape", "0"], "non-empty shape"),
])
def test_argument_errors_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


# sha256 of the --format json stdout; where the witness limit is 100000,
# every checked class is listed.
GOLDEN_JSON = [
    pytest.param(
        ["verify-parker", "--family", "symmetric", "--n-max", "8"],
        "d5f45184b7dc945a43ce7a765293ca7133637d0ac64c567a22c4e17d3fdfe48a",
        id="symmetric",
    ),
    pytest.param(
        ["verify-parker", "--family", "unipotent", "--n-max", "7", "--q", "3,5"],
        "5b32a1132e9279439dd73fe1b4f9932e6f7c2cbc7334b0aaa6656dd512333838",
        id="unipotent",
    ),
    pytest.param(
        ["verify-parker", "--family", "sgnpair", "--n-max", "6", "--q", "3,5",
         "--witness-limit", "100000"],
        "e0849dd283c7b6478ed5e1c76762bdef4651c92d9fe6fac659e6da674e3255fb",
        id="sgnpair",
    ),
    pytest.param(
        ["verify-parker", "--family", "unipotent", "--n-max", "8", "--q", "3,5,9",
         "--witness-limit", "100000"],
        "01dd0c06154f8bad3980a5e0e0bf66f2bf1d0a4fe3ff2e3c1fc9c349dbcabe02",
        id="unipotent-every-class",
    ),
    pytest.param(
        ["det-unipotent", "--shape", "2,1", "--q", "3"],
        "880054874724a616b3718b2a2fc2cd412a7d3f99b6a2068d9b9a3a4411bba8e4",
        id="det-unipotent-odd-q-exponent",
    ),
    pytest.param(
        ["det-sgnpair", "--lambda", "2", "--mu", "2,2", "--q", "3"],
        "760beee3c213a6b95bbbeee895d2ec80f1facbc871a8c038d9436600ab49e0db",
        id="det-sgnpair-outer-product",
    ),
    pytest.param(
        ["det-hecke", "--shape", "4,3,1", "--q", "5"],
        "a192a46c260830f0c3dca66e046d4ff5bbdffa349f9f832b7c0b3ab126024e60",
        id="det-hecke",
    ),
    pytest.param(
        ["det-symmetric", "--shape", "5,3,1"],
        "d419120f422957f89a7125485daefd9e828cf999ed03ee0da061bb8d76b0f3da",
        id="det-symmetric",
    ),
    pytest.param(
        ["oracle-check", "--n-max", "5", "--q", "1,3"],
        "b462701bb44312cfe7583215ef84ef50f30657da54d5462c1ad2bc47812f2ddc",
        id="oracle-check",
    ),
    pytest.param(
        ["oracle-check", "--n-max", "5", "--q", "3,5", "--method", "skew", "--seed", "1"],
        "c7d96884ebc639fd72e6b7ac54e9c92e188c6a04574889f385afcad33f3214fc",
        id="oracle-check-skew",
    ),
    pytest.param(
        ["oracle-check", "--n-max", "8", "--q", "3,9"],
        "cb27562e807b5b633a84ce5876fe43c579203c5fb956d0e2efce6283a9011c0e",
        id="oracle-check-n8",
    ),
    pytest.param(
        ["oracle-check", "--n-max", "9", "--q", "3"],
        "0f5a0e66acd147d00d60db9dd504da3f5193f05f264f0f13122425f64037a7c7",
        id="oracle-check-n9",
    ),
    pytest.param(
        ["selftest"],
        "455cb2101577437940b3f96e9587b31002158bc3e18fe7d3863fb05ca8e2b567",
        id="selftest",
    ),
    pytest.param(
        ["selftest", "--cyclotomic-max", "20", "--parity-max", "50", "--relations-max", "3"],
        "fc4953b6ec6dd4be4893925dc2a8b29e6fbc48136b89af99f4725f359d80debb",
        id="selftest-tiny",
    ),
]
# The first three again with the compatibility flag, which changes no row.
GOLDEN_JSON += [
    pytest.param(case.values[0] + ["--jobs", "1"], case.values[1], id=f"{case.id}-jobs-1")
    for case in GOLDEN_JSON[:3]
]
# Rows built from the q-free shape records, recorded before they existed:
# the 30 smallest odd prime powers, sign pairs up to q = 997, an odd
# induction index at q = 997 and an odd q-exponent at q = 243.
GOLDEN_JSON += [
    pytest.param(
        ["verify-parker", "--family", "unipotent", "--n-max", "12", "--q",
         "3,5,7,9,11,13,17,19,23,25,27,29,31,37,41,43,47,49,53,59,61,67,71,73,79,81,83,89,97,101"],
        "d3ae59b29e70ab3015e8192035bfd4166fbcdebfb24d0f41bc928d45555490fb",
        id="unipotent-30-q",
    ),
    pytest.param(
        ["verify-parker", "--family", "sgnpair", "--n-max", "9", "--q", "3,5,9,25,27,81,243,997"],
        "bf30ebebee69b0fcf77bca01a73d619b5f9ee95ab5f5346be8950a49a459dd76",
        id="sgnpair-8-q",
    ),
    pytest.param(
        ["det-sgnpair", "--lambda", "3,1", "--mu", "2,1", "--q", "997"],
        "e1e42a15518c78f79136032055e927d85342c5c41ccf8178faad6d6f387b2a1a",
        id="det-sgnpair-odd-index",
    ),
    pytest.param(
        ["det-unipotent", "--shape", "2,1", "--q", "243"],
        "3315e33ad2b15f34eefcc005a36b160db14094d0ffb6147c7d861aed95e4ef6e",
        id="det-unipotent-q-243",
    ),
]
# The benchmark's sweep scopes.
GOLDEN_JSON += [
    pytest.param(
        ["verify-parker", "--family", "symmetric", "--n-max", "11"],
        "260810a1e150464800a9d357e7b6a2688dbbc7add2f2a00312a02c12382dd2b8",
        id="bench-symmetric",
    ),
    pytest.param(
        ["verify-parker", "--family", "unipotent", "--n-max", "10", "--q", "3,5,7,9"],
        "ba882fb266a1ff919119a17939325c38b5f7bb01abd4c90570d1f4c98b7b1c43",
        id="bench-unipotent",
    ),
    pytest.param(
        ["verify-parker", "--family", "sgnpair", "--n-max", "10", "--q", "3,5,7,9"],
        "3c87e40aedef7a43540e04709704024f366c9a74964797f0c73f54e18934b884",
        id="bench-sgnpair",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_JSON)
def test_json_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oracle_check_gram_and_skew(capsys):
    code, out, _ = run(capsys, "oracle-check", "--n-max", "4", "--q", "1,3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["checked"] == 4  # shapes (2,1) and (2,2), two q values
    assert data["mismatches"] == []

    code, out, _ = run(capsys, "oracle-check", "--n-max", "4", "--q", "3",
                       "--method", "skew", "--seed", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["mismatches"] == []


def test_oracle_check_classifies_only_mismatches(capsys, monkeypatch):
    monkeypatch.setattr(cli, "class_of_integer", lambda det: pytest.fail("classified"))
    code, _, _ = run(capsys, "oracle-check", "--n-max", "4", "--q", "3", "--method", "skew")
    assert code == 0

    monkeypatch.undo()
    monkeypatch.setattr(oracle, "determinant_via_gram", lambda shape, q: 7 * 4)
    code, out, err = run(capsys, "oracle-check", "--n-max", "4", "--q", "3",
                         "--format", "json")
    assert code == 2
    data = json.loads(out)
    assert [row["oracle"]["squarefree"] for row in data["mismatches"]] == ["7", "7"]
    assert err.count("ORACLE MISMATCH") == 2


def test_oracle_check_rejects_small_n_max(capsys):
    # n <= 2 has no even-degree shape, so no comparison could be made.
    for n_max, q in (("1", "3"), ("0", "3"), ("-3", "3"), ("2", "3"), ("2", "0")):
        code, out, err = run(capsys, "oracle-check", "--n-max", n_max, "--q", q)
        assert code == 1
        assert out == ""
        assert "--n-max" in err


def test_oracle_check_rejects_q_below_one(capsys):
    for q in ("0", "3,0"):
        code, out, _ = run(capsys, "oracle-check", "--n-max", "4", "--q", q)
        assert code == 1
        assert out == ""


def test_oracle_check_resource_guard(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_DIM", 1)
    code, _, err = run(capsys, "oracle-check", "--n-max", "4", "--q", "3")
    assert code == 3
    assert "limit" in err

    # The whole scope is checked against the limits before any module is built.
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "MAX_SKEW_ENTRIES", 1)
    monkeypatch.setattr(oracle, "build_seminormal", lambda shape, q: pytest.fail("built"))
    code, out, err = run(capsys, "oracle-check", "--n-max", "4", "--q", "3", "--method", "skew")
    assert code == 3
    assert out == ""
    assert "skew limit" in err


@pytest.mark.parametrize("command", ["syt"])
def test_tableau_guard_exits_3(capsys, command):
    code, out, err = run(capsys, command, "--shape", "6,4,3,2,1")
    assert code == 3
    assert out == ""
    assert err.startswith("resource guard:") and "1153152 tableaux" in err


def test_det_symmetric_is_bounded_by_the_lattice_guard(capsys):
    # 1153152 tableaux, beyond the tableau guard, but only 174 sub-diagrams.
    code, out, _ = run(capsys, "det-symmetric", "--shape", "6,4,3,2,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["class"]["parity"] == "odd"

    staircase = ",".join(str(part) for part in range(12, 0, -1))
    code, out, err = run(capsys, "det-symmetric", "--shape", staircase)
    assert code == 3
    assert out == ""
    assert err.startswith("resource guard:") and "sub-diagram rows" in err


def test_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_syt", interrupted)
    code, out, err = run(capsys, "syt", "--shape", "2,1")
    assert code == 130
    assert out == ""
    assert err == "interrupted\n"


def test_selftest_small_scopes(capsys):
    code, out, _ = run(capsys, "selftest", "--cyclotomic-max", "30",
                       "--parity-max", "50", "--relations-max", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert {c["name"] for c in data["checks"]} == {
        "cyclotomic", "parity-lemma", "relations", "trace-pairing"
    }


@pytest.mark.parametrize("flag, value", [
    ("--cyclotomic-max", "0"),
    ("--parity-max", "-5"),
    ("--relations-max", "1"),
])
def test_selftest_rejects_empty_scopes(capsys, flag, value):
    # An empty scope checks nothing, so it must not be reported as ok.
    code, out, err = run(capsys, "selftest", flag, value, "--format", "json")
    assert code == 1
    assert out == ""
    assert flag in err


def test_identical_invocations_are_byte_identical(capsys):
    argv = ["det-unipotent", "--shape", "2,2", "--q", "9", "--format", "json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second

    argv = ["oracle-check", "--n-max", "4", "--q", "3", "--method", "skew",
            "--seed", "3", "--format", "json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_text_format_mentions_class(capsys):
    code, out, _ = run(capsys, "det-unipotent", "--shape", "2,2", "--q", "3")
    assert code == 0
    assert "39" in out and "odd" in out


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["det-unipotent", "--shape", "2,2", "--q", "3", "--bogus"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "orthdet", "det-symmetric", "--shape", "2,1", "--format", "json"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["class"]["squarefree"] == "3"
