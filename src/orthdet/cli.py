"""Command-line surface: determinant queries, verification sweeps, selftest.

Exit codes: 0 success, 1 argument error (including characters outside
Irr+), 2 violated mathematical invariant (witness dumped), 3 resource
guard tripped, 130 interrupted (Ctrl-C), with one `interrupted` line on
stderr. Identical invocations produce byte-identical output; JSON is sorted
and carries big integers as decimal strings.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from math import prod

from . import gl, hecke, parker
from .errors import InvariantViolation, ResourceGuardError, check_int
from .intpoly import cyclotomic, cyclotomic_at_one
from .squareclass import class_of_integer
from .tableaux import (
    check_partition,
    enumerate_partitions,
    enumerate_syt,
    even_degree_shapes,
)

EXIT_OK = 0
EXIT_ARGUMENT = 1
EXIT_INVARIANT = 2
EXIT_RESOURCE = 3
EXIT_INTERRUPTED = 130


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ARGUMENT, f"{self.prog}: error: {message}\n")


def _parse_shape(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text == "0":
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"shape must be comma-separated integers, got {text!r}")
    return check_partition(parts)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _emit(payload: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _class_text(cls) -> str:
    sign = "-" if cls.sign < 0 else ""
    return f"{sign}{cls.squarefree} ({cls.parity.value})"


# --- command handlers --------------------------------------------------------

def _cmd_det_unipotent(args) -> int:
    result = gl.unipotent_determinant(_parse_shape(args.shape), args.q)
    payload = result.to_json()
    payload["symbolic"] = result.symbolic.factors_json()
    lines = [
        f"unipotent character of GL_{sum(result.shapes[0])}({args.q}), shape {result.shapes[0]}",
        f"degree   {result.degree}",
        f"factors  {result.f_factored!r} * q^{result.q_exponent}",
        f"symbolic {result.symbolic!r}",
        f"class    {_class_text(result.det_class)}",
    ]
    lines += [f"  {label:11s} {_class_text(c)}" for label, c in result.breakdown]
    _emit(payload, lines, args.format)
    return EXIT_OK


def _hecke_payload(result) -> tuple[dict, list[str]]:
    lines = [
        f"shape {result.shape}, q = {result.q}",
        f"degree  {result.degree}",
        f"factors {result.f_factored!r}",
        f"class   {_class_text(result.det_class)}",
    ]
    return result.to_json(), lines


def _cmd_det_hecke(args) -> int:
    if args.q < 2:
        raise ValueError(f"det-hecke needs q >= 2 (use det-symmetric for q = 1), got {args.q}")
    payload, lines = _hecke_payload(hecke.hecke_determinant(_parse_shape(args.shape), args.q))
    _emit(payload, lines, args.format)
    return EXIT_OK


def _cmd_det_symmetric(args) -> int:
    payload, lines = _hecke_payload(hecke.hecke_determinant(_parse_shape(args.shape), 1))
    _emit(payload, lines, args.format)
    return EXIT_OK


def _cmd_det_sgnpair(args) -> int:
    result = gl.sign_pair_determinant(_parse_shape(args.lam), _parse_shape(args.mu), args.q)
    payload = result.to_json()
    lines = [
        f"sign pair {result.shapes[0]} | {result.shapes[1]} at q = {args.q}",
        f"degree {result.degree}",
        f"class  {_class_text(result.det_class)}",
    ]
    lines += [f"  {label:13s} {_class_text(c)}" for label, c in result.breakdown]
    _emit(payload, lines, args.format)
    return EXIT_OK


def _cmd_verify_parker(args) -> int:
    if args.family == "symmetric" and args.q is not None:
        raise ValueError("--q does not apply to --family symmetric (it runs at q = 1)")
    q_values = _parse_int_list("3,5,7" if args.q is None else args.q)
    limit = args.witness_limit
    if args.family == "unipotent":
        report = parker.verify_parker_unipotent(args.n_max, q_values, witness_limit=limit)
    elif args.family == "symmetric":
        report = parker.verify_parker_symmetric(args.n_max, witness_limit=limit)
    else:
        report = parker.verify_parker_sign_pairs(args.n_max, q_values, witness_limit=limit)
    lines = [
        f"family {report.family}, n <= {report.n_max}, q in {list(report.q_values)}",
        f"checked {report.checked} characters, failures: {len(report.failures)}",
    ]
    lines += [f"  witness: shapes {w.shapes} q={w.q} class {_class_text(w.det_class)}"
              for w in report.witnesses]
    _emit(report.to_json(), lines, args.format)
    if not report.ok:
        for w in report.failures:
            print(f"PARITY FAILURE: {json.dumps(w.to_json(), sort_keys=True)}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    from . import oracle

    q_values = _parse_int_list(args.q)
    if len(set(q_values)) != len(q_values):
        raise ValueError(f"q values must be distinct, got {list(q_values)}")
    skew = args.method == "skew"
    # Formula classes and oracle limits first, n by n: refuse an over-limit
    # scope unbuilt, before the partitions of any larger n are enumerated.
    scope = []
    for shape in even_degree_shapes(args.n_max):
        oracle.check_limits(shape, skew)
        for q in q_values:
            scope.append((shape, q, hecke.hecke_determinant(shape, q).det_class))
    if not scope:
        raise ValueError(f"--n-max {args.n_max} has no even-degree shape to check")
    rows = []
    mismatches = []
    for shape, q, expected in scope:
        if skew:
            det = oracle.determinant_via_skew_element(shape, q, args.seed)
        else:
            det = oracle.determinant_via_gram(shape, q)
        # Factor the determinant only to name the class of a mismatch.
        match = expected.contains(det)
        got = expected if match else class_of_integer(det)
        row = {
            "shape": list(shape),
            "q": q,
            "formula": expected.to_json(),
            "oracle": got.to_json(),
            "match": match,
        }
        rows.append(row)
        if not match:
            mismatches.append(row)
    payload = {
        "method": args.method,
        "n_max": args.n_max,
        "q": list(q_values),
        "seed": args.seed,
        "checked": len(rows),
        "mismatches": mismatches,
        "results": rows,
    }
    lines = [f"oracle method {args.method}: {len(rows)} comparisons, "
             f"{len(mismatches)} mismatches"]
    lines += [
        f"  {tuple(r['shape'])} q={r['q']}: formula {r['formula']['squarefree']}, "
        f"oracle {r['oracle']['squarefree']} {'ok' if r['match'] else 'MISMATCH'}"
        for r in rows
    ]
    _emit(payload, lines, args.format)
    if mismatches:
        for row in mismatches:
            print(f"ORACLE MISMATCH: {json.dumps(row, sort_keys=True)}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_syt(args) -> int:
    shape = _parse_shape(args.shape)
    if not shape:
        raise ValueError("syt needs a non-empty shape")
    graph = enumerate_syt(shape)
    tableaux = [[list(row) for row in t] for t in graph.nodes]
    payload = {"shape": list(shape), "count": graph.size, "tableaux": tableaux}
    lines = [f"shape {shape}: {graph.size} standard tableaux"]
    lines += [f"  {t}" for t in tableaux]
    if args.graph:
        payload["edges"] = [
            {"from": lo, "to": hi, "s": k} for lo, hi, k in graph.edges
        ]
        lines.append("edges (node indices, generator):")
        lines += [f"  {lo} --s_{k}-- {hi}" for lo, hi, k in graph.edges]
    _emit(payload, lines, args.format)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from . import oracle

    # An empty scope would report "ok" having checked nothing.
    check_int(args.cyclotomic_max, "--cyclotomic-max", 1)
    check_int(args.parity_max, "--parity-max", 1)
    check_int(args.relations_max, "--relations-max", 2)
    checks = []

    ok = all(
        _cyclotomic_product_is_exact(n) and cyclotomic(n)(1) == cyclotomic_at_one(n)
        for n in range(1, args.cyclotomic_max + 1)
    )
    checks.append({"name": "cyclotomic", "scope": f"n <= {args.cyclotomic_max}", "ok": ok})

    ok = all(
        all(parker.lemma_parity_walk(q, 1, args.parity_max)) for q in (3, 5, 7, 9, 11, 27, 81)
    )
    checks.append({"name": "parity-lemma", "scope": f"c <= {args.parity_max}", "ok": ok})

    # build_seminormal checks every relation and raises on a failure (exit 2).
    for n in range(2, args.relations_max + 1):
        for shape in enumerate_partitions(n):
            for q in (1, 3, 5):
                oracle.build_seminormal(shape, q)
    checks.append(
        {"name": "relations", "scope": f"n <= {args.relations_max}, q in (1,3,5)", "ok": True}
    )

    ok = all(oracle.verify_trace_pairing(n, 3) for n in range(2, 5))
    checks.append({"name": "trace-pairing", "scope": "n <= 4, q = 3", "ok": ok})

    payload = {"checks": checks, "ok": all(c["ok"] for c in checks)}
    lines = [f"{c['name']:14s} {c['scope']:28s} {'ok' if c['ok'] else 'FAIL'}" for c in checks]
    _emit(payload, lines, args.format)
    return EXIT_OK if payload["ok"] else EXIT_INVARIANT


def _cyclotomic_product_is_exact(n: int) -> bool:
    """Whether the product of Phi_d over d | n is x^n - 1, by one evaluation at x = 2^B.

    The difference has coefficients of size at most P + 1 < 2^(B-1), P the
    product of the factors' L1 norms, so it is 0 iff its value at 2^B is.
    """
    factors = [cyclotomic(d) for d in range(1, n + 1) if n % d == 0]
    bound = prod(sum(map(abs, f.coeffs)) for f in factors) + 1
    x = 1 << (bound.bit_length() + 1)
    return prod(f(x) for f in factors) == x**n - 1


# --- parser wiring ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orthdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("det-unipotent", _cmd_det_unipotent, "determinant class of a unipotent character")
    p.add_argument("--shape", required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("det-hecke", _cmd_det_hecke, "determinant class of a Hecke character (q >= 2)")
    p.add_argument("--shape", required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("det-symmetric", _cmd_det_symmetric, "determinant class of a symmetric group character")
    p.add_argument("--shape", required=True)

    p = add("det-sgnpair", _cmd_det_sgnpair, "determinant class of an induced sign pair")
    p.add_argument("--lambda", dest="lam", default="", help="first shape (may be empty)")
    p.add_argument("--mu", default="", help="second shape (may be empty)")
    p.add_argument("--q", type=int, required=True)

    p = add("verify-parker", _cmd_verify_parker, "parity sweep over a character family")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--q", help="odd prime powers (default 3,5,7); not with symmetric")
    p.add_argument("--family", choices=("unipotent", "symmetric", "sgnpair"), default="unipotent")
    # One value only: orthbench/ passes --jobs 1 (traced runs, record.py, check.py), so the
    # flag goes together with that harness's pool metric.
    p.add_argument("--jobs", type=int, choices=(1,), default=1,
                   help="accepted for compatibility; sweeps are serial")
    p.add_argument("--witness-limit", type=int, default=parker.DEFAULT_WITNESS_LIMIT)

    p = add("oracle-check", _cmd_oracle_check, "compare formula classes against a Gram or skew oracle")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--q", default="1,3,5")
    p.add_argument("--method", choices=("gram", "skew"), default="gram")
    p.add_argument("--seed", type=int, default=0)

    p = add("syt", _cmd_syt, "enumerate the standard tableaux of a shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--graph", action="store_true", help="include transposition edges")

    p = add("selftest", _cmd_selftest, "run the cyclotomic, parity and relation suites")
    p.add_argument("--cyclotomic-max", type=int, default=200)
    p.add_argument("--parity-max", type=int, default=2000)
    p.add_argument("--relations-max", type=int, default=5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Degrees print in full, however many digits; argv keeps Python's default
    # limit, and an in-process caller gets its own setting back.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def run() -> int:
    """`main()` for a process of its own: the `orthdet` script and `python -m orthdet[.cli]`.

    It freezes the garbage collector's view of the import-time heap first
    (`gc.freeze`), so that neither the collections during the command nor
    the one at interpreter exit traverse the package's and the standard
    library's module objects again. From `main` returning to the process
    being reaped, `verify-parker --family unipotent --n-max 10` took 10.7 ms
    and `selftest` 11.6 ms, and 3.3 and 4.1 ms with the heap frozen
    (medians of 15, CPython 3.11, 2-core VM). Objects made later stay
    collectable. `main` itself has no process-level side effect, for
    in-process callers.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
