import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orthdet import oracle, parker
from orthdet.cli import main
from orthdet.hecke import QIntProduct
from orthdet.squareclass import SquareClass


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
    rebuilt = QIntProduct.from_factors_json(data["factors"])
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


def test_verify_parker_rejects_negative_counts(capsys):
    for flag in ("--jobs", "--witness-limit"):
        code, out, err = run(capsys, "verify-parker", "--n-max", "4", "--q", "3", flag, "-1")
        assert code == 1
        assert out == ""
        assert "non-negative" in err


def test_verify_parker_symmetric_rejects_q(capsys):
    code, out, err = run(capsys, "verify-parker", "--family", "symmetric", "--n-max", "4",
                         "--q", "4")
    assert code == 1
    assert out == ""
    assert "--q" in err


# sha256 of the --format json stdout; the sign-pair witness limit is high
# enough that every checked class is listed.
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
        ["oracle-check", "--n-max", "5", "--q", "1,3"],
        "b462701bb44312cfe7583215ef84ef50f30657da54d5462c1ad2bc47812f2ddc",
        id="oracle-check",
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


def test_oracle_check_rejects_small_n_max(capsys):
    for n_max in ("1", "0", "-3"):
        code, out, err = run(capsys, "oracle-check", "--n-max", n_max, "--q", "3")
        assert code == 1
        assert out == ""
        assert "--n-max" in err


def test_oracle_check_resource_guard(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_DIM", 1)
    code, _, err = run(capsys, "oracle-check", "--n-max", "4", "--q", "3")
    assert code == 3
    assert "limit" in err


def _die(q_values, task):
    os._exit(1)


def test_dead_sweep_worker_exits_3(capsys, monkeypatch):
    family = dataclasses.replace(parker._FAMILIES["symmetric"], worker=_die)
    monkeypatch.setitem(parker._FAMILIES, "symmetric", family)
    code, out, err = run(capsys, "verify-parker", "--family", "symmetric", "--n-max", "4",
                         "--jobs", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("resource guard:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["syt", "det-symmetric"])
def test_tableau_guard_exits_3(capsys, command):
    code, out, err = run(capsys, command, "--shape", "6,4,3,2,1")
    assert code == 3
    assert out == ""
    assert err.startswith("resource guard:") and "1153152 tableaux" in err


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
