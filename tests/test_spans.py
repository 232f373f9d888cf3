"""The benchmark tracer in orthbench/spans.py wraps orthdet functions by name.

Renaming a traced function would only break the traced benchmark run; this
test makes it fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "orthbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("orthbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name, module_name, path, _ in spans.TARGETS:
        owner = importlib.import_module(f"orthdet.{module_name}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(name)
    assert spans.TARGETS and missing == []
