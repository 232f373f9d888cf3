"""Exact orthogonal determinants for GL_n(q) and type-A Hecke characters.

The package computes square classes over the rationals of the orthogonal
determinants of even-degree unipotent and sign-pair characters of GL_n(q)
for odd prime powers q, of the matching Iwahori-Hecke algebra characters at
parameter q, and of symmetric group characters (q = 1). Every formula can
be cross-checked against an independent Gram-form oracle built from
explicit seminormal representations, and parity sweeps confirm that all
computed determinants are odd.

The oracle's names (`determinant_via_gram`, `GramForm`, ...) load
`orthdet.oracle` on first access, so importing the package for a sweep or
a formula never builds the oracle's linear algebra.
"""

from .errors import (
    FactorizationError,
    InvariantViolation,
    NotIrrPlusError,
    ResourceGuardError,
    SkewElementSearchError,
)
from .gl import (
    GlDetResult,
    PrimePower,
    as_odd_prime_power,
    sign_pair_determinant,
    unipotent_degree,
    unipotent_determinant,
    unipotent_q_exponent,
)
from .hecke import (
    HeckeDetResult,
    QIntProduct,
    det_poly_factored,
    det_poly_reduced,
    hecke_determinant,
    tableau_polynomials,
)
from .intpoly import IntPoly, cyclotomic, cyclotomic_at_one, gaussian_binomial, q_int
from .parker import (
    ParityReport,
    ParityWitness,
    lemma_parity_check,
    parity_bridge_check,
    verify_parker_sign_pairs,
    verify_parker_symmetric,
    verify_parker_unipotent,
)
from .squareclass import (
    Parity,
    SquareClass,
    class_of_integer,
    parity_of_integer,
)
from .tableaux import (
    TableauGraph,
    check_partition,
    enumerate_partitions,
    enumerate_syt,
    hook_lengths,
    syt_count,
    tableau_word,
)

__version__ = "0.1.0"

_ORACLE_NAMES = (
    "GramForm", "SeminormalRep", "build_seminormal", "determinant_via_gram",
    "determinant_via_skew_element", "gram_form", "verify_trace_pairing", "word_image",
)


def __getattr__(name):
    # PEP 562: called only for names the module does not already hold.
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    return getattr(oracle, name)
