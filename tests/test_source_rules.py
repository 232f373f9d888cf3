"""Source rules of the package, read off the syntax trees of `src/orthdet`.

Every result is exact and the package has no dependencies (`dependencies =
[]`), so its code holds no float arithmetic, imports only the standard
library and itself, and touches `Fraction` only where `linalg` clears
denominators in `rational_determinant`. Only `oracle.check_limits` names
`factorial`, for the skew route's n!: tableau counts come from the shape
record, and no count path forms n!. No value is coerced with `int`
except argument text in `cli` and an integral `Fraction` there. Imports
sit at module level, except `from . import oracle` in the two oracle
commands and the package's `__getattr__`. No module imports `dataclasses`
or calls `exec`/`eval`: records come from `errors.record`. Every private
module-level function or class is named somewhere in the package besides
its own definition (no dead helpers), as is every private or ALL_CAPS
module-level constant (no stale guards). No code looks a name up in
`globals()`: callers pass functions.
Only `hecke` takes the 2-adic valuation of q + 1: the parity rule at odd q
lives in `hecke.odd_q_parity`, and no sweep keeps a copy of it. Only
`cli.run`, the process entry, freezes the collector's heap: `main` has no
process-level side effect, since tests and tracers call it in process. Only
`tableaux.check_even_degree` (the odd-degree gate) and `gl.sign_pair_row`
(the sign-pair refusal) build a `NotIrrPlusError`, so each rule has one copy.
`oracle` names no tableau object or accessor (`nodes`, `StandardTableau`,
`position`, `content`): it reads content vectors and edges, so the tableau
format stays behind `tableaux`. `oracle` has one matrix format, dense integer
rows: it imports only `Matrix` and `bareiss_determinant` from `linalg` and
names no `mat_mul`, so every generator acts through its own two-term kernel.
A tableau has one format, its content vector: no module names
`StandardTableau`, `apply_simple_transposition`, `row_filling_tableau`,
`edge_content_gap` or `position`, and `hecke` names no `nodes`, so the
reference `tableau_polynomials` reads its gaps off the content vectors.
A product with its squares dropped has one format, an int mask (bit 1 the
x-power, bit k an odd [k]_x): no module names `reduced`, `odd_mask` or
`odd_q_bits`, and `gl.sign_pair_row` has no `one` parameter, so no rule
serves two formats.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "orthdet").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_are_found():
    assert {"linalg.py", "oracle.py", "cli.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_float_arithmetic(path):
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float constant"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float() call"))
    assert not found, f"{path.name}: {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_stay_in_the_standard_library(path):
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue  # a relative import stays in the package
        for module in modules:
            top = module.split(".")[0]
            if top != "orthdet" and top not in sys.stdlib_module_names:
                found.append((node.lineno, module))
    assert not found, f"{path.name}: {found}"


def _names(node, name) -> bool:
    if isinstance(node, ast.Name):
        return node.id == name
    if isinstance(node, ast.Attribute):
        return node.attr == name
    if isinstance(node, ast.alias):
        return name in (node.name, node.asname)
    return False


def _lines_naming(path, name, home, module, function) -> list:
    """Lines of `path` naming `name` outside `function` of `home` and its import from `module`."""
    tree = _tree(path)
    allowed = set()
    if path.name == home:
        for node in tree.body:
            if (isinstance(node, ast.ImportFrom) and node.module == module) or (
                isinstance(node, ast.FunctionDef) and node.name == function
            ):
                allowed.update(id(inner) for inner in ast.walk(node))
    return [
        getattr(node, "lineno", None)
        for node in ast.walk(tree)
        if _names(node, name) and id(node) not in allowed
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_fraction_only_in_rational_determinant(path):
    found = _lines_naming(path, "Fraction", "linalg.py", "fractions", "rational_determinant")
    assert not found, f"{path.name}: Fraction at lines {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_factorial_only_in_check_limits(path):
    found = _lines_naming(path, "factorial", "oracle.py", "math", "check_limits")
    assert not found, f"{path.name}: factorial at lines {found}"


# (module, function) pairs where `int(...)` may convert: argument text, and
# the integral Fractions of `rational_determinant`.
INT_COERCION_ALLOWED = {
    ("cli.py", "_parse_shape"),
    ("cli.py", "_parse_int_list"),
    ("linalg.py", "rational_determinant"),
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_int_coercion(path):
    # A float, Fraction or bool is refused (`errors.check_int`), never truncated.
    tree = _tree(path)
    allowed = {
        id(inner)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) in INT_COERCION_ALLOWED
        for inner in ast.walk(node)
    }
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node) not in allowed
        and (
            getattr(node.func, "id", None) == "int"
            or (getattr(node.func, "id", None) == "map"
                and node.args and getattr(node.args[0], "id", None) == "int")
        )
    ]
    assert not found, f"{path.name}: int coercion at lines {found}"


# The functions whose body may import the oracle, so that the sweeps and
# `det-*` commands never load it (nor `linalg`, `fractions` and `decimal`).
LAZY_ORACLE_IMPORTS = {
    ("cli.py", "_cmd_oracle_check"),
    ("cli.py", "_cmd_selftest"),
    ("__init__.py", "__getattr__"),
}


def _is_oracle_import(node) -> bool:
    return (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            and [(alias.name, alias.asname) for alias in node.names] == [("oracle", None)])


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_at_module_level(path):
    tree = _tree(path)
    allowed = {
        id(statement)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) in LAZY_ORACLE_IMPORTS
        for statement in node.body
        if _is_oracle_import(statement)
    }
    found = [
        (inner.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom)) and id(inner) not in allowed
    ]
    assert not found, f"{path.name}: imports inside (line, body) {found}"
    # The allow-list names no function that lost its import.
    assert len(allowed) == sum(name == path.name for name, _ in LAZY_ORACLE_IMPORTS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_records_need_no_dataclasses_or_exec(path):
    # Result types use `errors.record`, which builds its methods from closures.
    found = [
        node.lineno
        for node in ast.walk(_tree(path))
        if _names(node, "dataclasses")
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("exec", "eval"))
    ]
    assert not found, f"{path.name}: dataclasses, exec or eval at lines {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_globals_lookup(path):
    found = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "globals"
    ]
    assert not found, f"{path.name}: globals() at lines {found}"


def _is_plus_one(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and any(
        isinstance(side, ast.Constant) and side.value == 1 for side in (node.left, node.right)
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_v2_of_q_plus_one_only_in_hecke(path):
    found = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and _names(node.func, "two_adic_valuation")
        and node.args and _is_plus_one(node.args[0])
    ]
    if path.name == "hecke.py":
        assert len(found) == 1, f"hecke.py: two_adic_valuation(... + 1) at lines {found}"
    else:
        assert not found, f"{path.name}: two_adic_valuation(... + 1) at lines {found}"


def test_not_irr_plus_error_has_two_sources():
    # Each call is listed under the module-level function or class it sits in.
    found = sorted(
        (path.name, getattr(node, "name", None))
        for path in SOURCES
        for node in _tree(path).body
        for inner in ast.walk(node)
        if isinstance(inner, ast.Call) and _names(inner.func, "NotIrrPlusError")
    )
    assert found == [("gl.py", "sign_pair_row"), ("tableaux.py", "check_even_degree")]


def _identifiers(node) -> set[str]:
    names = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name) and not isinstance(inner.ctx, ast.Store):
            names.add(inner.id)
        elif isinstance(inner, ast.Attribute):
            names.add(inner.attr)
        elif isinstance(inner, ast.alias):
            names.add(inner.name)
    return names


def test_private_definitions_are_used():
    # No dead helpers: a private module-level function or class is named in
    # some statement of the package other than its own definition.
    statements = [(path, node) for path in SOURCES for node in _tree(path).body]
    named = [_identifiers(node) for _, node in statements]
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for i, (path, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(node.name in names for j, names in enumerate(named) if j != i)
    ]
    assert not unused, f"unused private definitions: {unused}"


def _assigned_names(node) -> list[str]:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return []
    return [inner.id for target in targets for inner in ast.walk(target)
            if isinstance(inner, ast.Name)]


def test_module_constants_are_read():
    # No leftover guards or caches: a private or ALL_CAPS module-level
    # assignment is read by some statement of the package other than itself.
    statements = [(path, node) for path in SOURCES for node in _tree(path).body]
    named = [_identifiers(node) for _, node in statements]
    unread = [
        f"{path.name}:{node.lineno} {name}"
        for i, (path, node) in enumerate(statements)
        for name in _assigned_names(node)
        if (name.isupper() or (name.startswith("_") and not name.startswith("__")))
        and not any(name in names for j, names in enumerate(named) if j != i)
    ]
    assert not unread, f"unread module-level constants: {unread}"


def test_gc_freeze_only_in_the_process_entry():
    found = sorted(
        (path.name, getattr(node, "name", None))
        for path in SOURCES
        for node in _tree(path).body
        for inner in ast.walk(node)
        if isinstance(inner, ast.Call) and _names(inner.func, "freeze")
    )
    assert found == [("cli.py", "run")]


def test_oracle_reads_no_tableau_objects():
    path = next(path for path in SOURCES if path.name == "oracle.py")
    found = sorted(
        (node.lineno, name)
        for node in ast.walk(_tree(path))
        for name in ("nodes", "StandardTableau", "position", "content")
        if _names(node, name)
    )
    assert not found, f"oracle.py names tableau objects at (line, name) {found}"


def test_oracle_uses_one_matrix_format():
    path = next(path for path in SOURCES if path.name == "oracle.py")
    tree = _tree(path)
    imported = sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "linalg"
        for alias in node.names
    )
    assert imported == ["Matrix", "bareiss_determinant"]
    found = [getattr(node, "lineno", None) for node in ast.walk(tree) if _names(node, "mat_mul")]
    assert not found, f"oracle.py names mat_mul at lines {found}"


def test_one_tableau_format():
    gone = ("StandardTableau", "apply_simple_transposition", "row_filling_tableau",
            "edge_content_gap", "position")
    found = sorted(
        (path.name, node.lineno, name)
        for path in SOURCES
        for node in ast.walk(_tree(path))
        for name in gone + ("nodes",) * (path.name == "hecke.py")
        if _names(node, name)
    )
    assert not found, f"tableau objects named at (module, line, name) {found}"


def test_one_squarefree_product_format():
    found = sorted(
        (path.name, node.lineno, name)
        for path in SOURCES
        for node in ast.walk(_tree(path))
        for name in ("reduced", "odd_mask", "odd_q_bits")
        if _names(node, name)
    )
    assert not found, f"second squarefree formats named at (module, line, name) {found}"
    gl_tree = _tree(next(path for path in SOURCES if path.name == "gl.py"))
    (row,) = [node for node in gl_tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "sign_pair_row"]
    arguments = row.args.posonlyargs + row.args.args + row.args.kwonlyargs
    assert [argument.arg for argument in arguments] == ["lam", "mu", "side"]
