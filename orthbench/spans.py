"""Call tracing of orthdet from outside the package.

Each target is a public function or method of one orthdet module. While a
`Tracer` is installed, every call to a target records a span
(name, start, end, parent) in memory; nothing inside the package changes.
Module-level functions are rebound in every `orthdet.*` module whose
attribute *is* the original, because `parker`, `gl`, `oracle`, `hecke` and
`cli` import them by name; methods are replaced on their class.

Per-element helpers called 10^5 times or more per workload
(`apply_simple_transposition`, `check_partition`, `StandardTableau`) are
deliberately not wrapped: their time shows up as self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _shape_key(args, kwargs):
    return tuple(args[0])


def _first_arg(args, kwargs):
    return args[0]


# (span name, module, attribute path, distinct-key function or None).
# The span name is "<layer>.<function>"; the layer is the orthdet module.
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("parker.verify_parker_symmetric", "parker", "verify_parker_symmetric", None),
    ("parker.verify_parker_unipotent", "parker", "verify_parker_unipotent", None),
    ("parker.verify_parker_sign_pairs", "parker", "verify_parker_sign_pairs", None),
    ("parker.lemma_parity_check", "parker", "lemma_parity_check", None),
    ("gl.unipotent_degree", "gl", "unipotent_degree", None),
    ("gl.unipotent_determinant", "gl", "unipotent_determinant", None),
    ("gl.sign_pair_determinant", "gl", "sign_pair_determinant", None),
    ("hecke.tableau_polynomials", "hecke", "tableau_polynomials", None),
    ("hecke.det_poly_factored", "hecke", "det_poly_factored", _shape_key),
    ("hecke.hecke_determinant", "hecke", "hecke_determinant", None),
    ("hecke.square_class", "hecke", "QIntProduct.square_class", None),
    ("tableaux.enumerate_syt", "tableaux", "enumerate_syt", _shape_key),
    ("squareclass.class_of_integer", "squareclass", "class_of_integer", None),
    ("squareclass.factorize", "squareclass", "factorize", _first_arg),
    ("squareclass.is_probable_prime", "squareclass", "is_probable_prime", None),
    ("intpoly.cyclotomic", "intpoly", "cyclotomic", None),
    ("intpoly.gaussian_binomial", "intpoly", "gaussian_binomial", None),
    ("oracle.build_seminormal", "oracle", "build_seminormal", None),
    ("oracle.verify_relations", "oracle", "verify_relations", None),
    ("oracle.gram_form", "oracle", "gram_form", None),
    ("oracle.all_word_images", "oracle", "all_word_images", None),
    ("oracle.determinant_via_gram", "oracle", "determinant_via_gram", None),
    ("oracle.determinant_via_skew_element", "oracle", "determinant_via_skew_element", None),
    ("oracle.verify_trace_pairing", "oracle", "verify_trace_pairing", None),
    ("linalg.mat_mul", "linalg", "mat_mul", None),
    ("linalg.bareiss_determinant", "linalg", "bareiss_determinant", None),
    ("linalg.rational_determinant", "linalg", "rational_determinant", None),
    ("linalg.IntegerKernelSolver.add_equation", "linalg", "IntegerKernelSolver.add_equation", None),
    ("linalg.IntegerKernelSolver.kernel_vector", "linalg", "IntegerKernelSolver.kernel_vector", None),
)

LAYERS = ("cli", "parker", "gl", "hecke", "tableaux", "squareclass", "intpoly", "oracle", "linalg")


def _orthdet_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "orthdet" or name.startswith("orthdet.")
    ]


def lru_caches() -> list:
    """Every functools cache in the imported orthdet modules."""
    return [
        value
        for module in _orthdet_modules()
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    ]


class Tracer:
    """In-memory span recorder; `install` wraps the targets until `uninstall`.

    Spans are lists [name, start, end, parent index or -1], appended in call
    order, so a parent always precedes its children. Besides spans, a
    tracer keeps the distinct keys seen per target (for distinct_frac), the
    largest factorized bit length, and summed sizes of tableau graphs and
    seminormal representations.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.distinct: dict[str, set] = defaultdict(set)
        self.sums: dict[str, int] = defaultdict(int)
        self.max_bits = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.distinct.clear()
        self.sums.clear()
        self.max_bits = 0

    def _observe(self, name, args, result) -> None:
        if name == "tableaux.enumerate_syt":
            self.sums["tableaux.nodes"] += result.size
        elif name == "oracle.build_seminormal":
            self.sums["oracle.dim_sum"] += result.dim
        elif name == "squareclass.factorize":
            self.max_bits = max(self.max_bits, args[0].bit_length())

    def wrap(self, name: str, fn, key=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        distinct = self.distinct
        observe = self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if key is not None:
                distinct[name].add(key(args, kwargs))
            observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _orthdet_modules()
        for name, module_name, path, key in TARGETS:
            owner = importlib.import_module(f"orthdet.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[attr]
                self._rebind(cls, attr, self.wrap(name, original, key))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(name, original, key)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as out:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "names": names,
                    "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
                },
                out,
                separators=(",", ":"),
            )


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another inside it (one thread), so
    their summed durations are the part of the parent's interval they cover.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Self time and call count per span name."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        self_s[span[0]] += own
        calls[span[0]] += 1
    return dict(self_s), dict(calls)
