"""The benchmark tracer in orthbench/spans.py wraps orthdet functions by name.

Renaming a traced function, or calling it through a reference the tracer
cannot rebind, would only break the traced benchmark run; these tests make
it fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

from orthdet import parker

SPANS = Path(__file__).resolve().parents[1] / "orthbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("orthbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_target_resolves():
    spans = _spans()
    missing = []
    for name, module_name, path, _ in spans.TARGETS:
        owner = importlib.import_module(f"orthdet.{module_name}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(name)
    assert spans.TARGETS and missing == []


def test_sweeps_bypass_the_traced_determinants():
    # Sweep rows come from `hecke.beta_row`, and printed rows read their
    # classes from `gl.unipotent_row`, `gl.sign_pair_row` and
    # `hecke.hecke_row`; no target wraps them: the sweeps show as their own
    # spans, and the determinant spans stay empty.
    tracer = _spans().Tracer()
    tracer.install()
    try:
        parker.verify_parker_unipotent(4, [3])
        parker.verify_parker_symmetric(4)
        parker.verify_parker_sign_pairs(3, [3])
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"parker.verify_parker_unipotent", "parker.verify_parker_symmetric",
            "parker.verify_parker_sign_pairs"} <= names
    assert not names & {"gl.unipotent_determinant", "gl.sign_pair_determinant",
                        "hecke.hecke_determinant"}
