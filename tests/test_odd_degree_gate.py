"""The one odd-degree gate, `tableaux.check_even_degree`.

It reads v2 of the tableau count off the shape record's cyclotomic
multiplicities, so every determinant entry point refuses an odd-degree
shape before any tableau count, degree or lattice walk: here all three are
patched to fail.
"""

import sys
from math import factorial, prod

import pytest

from orthdet import gl, hecke, oracle, parker, tableaux
from orthdet.cli import main
from orthdet.errors import NotIrrPlusError
from orthdet.tableaux import check_even_degree, enumerate_partitions, hook_lengths

HUGE_ONE_ROW = [(4000,), (100000,)]


def test_gate_parity_is_the_tableau_count_parity():
    shapes = [shape for n in range(1, 21) for shape in enumerate_partitions(n)] + [()]
    assert len(shapes) == 2714
    for shape in shapes:
        count = factorial(sum(shape)) // prod(hook_lengths(shape).values())
        if count % 2:
            with pytest.raises(NotIrrPlusError):
                check_even_degree(shape)
        else:
            check_even_degree(shape)


@pytest.fixture
def nothing_counted(monkeypatch):
    def forbidden(*args):
        pytest.fail(f"work before the odd-degree refusal: {args[:1]}")

    # Every binding of `syt_count` in the package, so that no caller counts.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "orthdet" and hasattr(module, "syt_count"):
            monkeypatch.setattr(module, "syt_count", forbidden)
    monkeypatch.setattr(gl, "_degree_and_exponent", forbidden)
    monkeypatch.setattr(hecke, "_lattice_product", forbidden)


SINGLE_SHAPE = {
    "hecke-q1": lambda shape: hecke.hecke_determinant(shape, 1),
    "hecke-q3": lambda shape: hecke.hecke_determinant(shape, 3),
    "unipotent": lambda shape: gl.unipotent_determinant(shape, 3),
    "gram": lambda shape: oracle.determinant_via_gram(shape, 3),
    "skew": lambda shape: oracle.determinant_via_skew_element(shape, 3),
    "bridge": lambda shape: parker.parity_bridge_check(shape, 3),
}

# Odd induction index and both components odd: the sign-pair rule of `gl`.
SIGN_PAIRS = {
    "sign-pair-lam": lambda shape: gl.sign_pair_determinant(shape, (), 3),
    "sign-pair-mu": lambda shape: gl.sign_pair_determinant((1,), shape, 3),
}


@pytest.mark.parametrize("shape", HUGE_ONE_ROW)
@pytest.mark.parametrize("entry", [*SINGLE_SHAPE.values(), *SIGN_PAIRS.values()],
                         ids=[*SINGLE_SHAPE, *SIGN_PAIRS])
def test_entry_points_refuse_before_counting(nothing_counted, entry, shape):
    with pytest.raises(NotIrrPlusError, match="has odd degree"):
        entry(shape)


@pytest.mark.parametrize("shape", HUGE_ONE_ROW)
def test_det_commands_refuse_before_counting(nothing_counted, capsys, shape):
    text = str(shape[0])
    line = f"error: shape {shape} has odd degree: no orthogonal determinant\n"
    commands = {
        ("det-unipotent", "--shape", text, "--q", "3"): line,
        ("det-hecke", "--shape", text, "--q", "3"): line,
        ("det-symmetric", "--shape", text): line,
        ("det-sgnpair", "--lambda", text, "--q", "3"):
            f"error: sign pair {shape} | () has odd degree at odd q: not orthogonally stable\n",
    }
    for argv, expected in commands.items():
        for fmt in ("json", "text"):
            assert main([*argv, "--format", fmt]) == 1, argv
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", expected), argv


def test_one_wording_for_every_single_shape_refusal():
    for entry in SINGLE_SHAPE.values():
        with pytest.raises(NotIrrPlusError) as info:
            entry((2, 1, 1))
        assert str(info.value) == "shape (2, 1, 1) has odd degree: no orthogonal determinant"
