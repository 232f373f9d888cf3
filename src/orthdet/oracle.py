"""Independent verification of determinant classes via explicit representations.

Nothing here touches the tableau polynomials: the module builds the
seminormal matrices for a shape at a numeric parameter q (q = 1 gives the
symmetric group) and returns the Gram determinant of the invariant
bilinear form. The form is built diagonal along the tableau graph and
certified invariant, nondegenerate and unique up to scale: the
Jucys-Murphy elements act diagonally with distinct eigenvalues on the
tableau basis, so no solve is needed. A second, randomized route
multiplies out basis-element images along reduced words and returns the
determinant of a skew element. Both routes share one entry that refuses
a shape with an odd tableau count before building anything;
`check_limits` bounds the dimension and the skew route's n! images from
that count alone. Both determinants are returned as integers and never
factored here: whether one lies in the formula's square class is a
perfect-square test (`SquareClass.contains`). Agreement of either route
with the polynomial formula is the package's central cross-check.

Each generator sends a basis tableau to itself and at most one swap
partner, so it is stored as its sparse columns (see `linalg`), times one
common scale that makes every entry an integer; all arithmetic here is on
ints. Every matrix here is such columns and every product is
`linalg.mat_mul`: the relation checks (each generator is checked against
the quadratic, braid and commutation relations as it is built, so a bad
block formula can never propagate silently), the form's invariance check,
the Jucys-Murphy elements, word images and the trace-pairing check on the
regular module. The one dense list is the skew route's running sum,
passed to the determinant row by row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial, gcd, lcm, prod

from .errors import (
    InvariantViolation,
    NotIrrPlusError,
    ResourceGuardError,
    SkewElementSearchError,
    check_int,
)
from .intpoly import q_int
from .linalg import (
    Columns,
    bareiss_determinant,
    identity_matrix,
    mat_mul,
    transpose,
)
from .tableaux import TableauGraph, check_partition, enumerate_syt, syt_count

# Ceiling on the module dimension, calibrated on the Gram route: on a 2-core
# VM at q = 3, build plus `gram_form` take 0.18 s at dim 450, (5,3,2), and
# 0.34 s at dim 768, (4,3,2,1), the largest n = 10 module; all 26 even n = 10
# shapes take 2.4-2.6 s and 27 MB. Admits all n <= 10. The skew route has
# its own guard below.
MAX_DIM = 768

# Ceiling on the n! * dim^2 word-image entries the skew route stores, each a
# (row, value) pair. On a 2-core VM the worst n = 7 shape, (4,1,1,1)
# (2,016,000 entries), takes 3.0-3.3 s and 272 MB peak RSS at q = 9; the
# smallest even n = 8 one, (4,4) (7,902,720), takes 12 s and 1.2 GB at q = 3.
# Admits every n <= 7.
MAX_SKEW_ENTRIES = 4_000_000

# Random skew elements: how many to try, and the range of their coefficients.
SKEW_ATTEMPTS = 32
SKEW_COEFF_BOUND = 5


# --- permutations as tuples (perm[i] = image of i+1) ------------------------

def _perm_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v - 1] = i + 1
    return tuple(inv)


def _perm_length(a: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(a)) for j in range(i + 1, len(a)) if a[i] > a[j])


# --- seminormal representations ---------------------------------------------

@dataclass(frozen=True)
class SeminormalRep:
    """Generators of one irreducible module on the tableau basis.

    Generator i is stored as the integer columns (see `linalg`) of scale * T_i,
    scale = lcm([k]_q^2 for 2 <= k <= n-1): column b holds the entries at
    tableau b and at its swap partner, if any; `word_image(rep, [i])` returns them.
    """

    shape: tuple[int, ...]
    q: int
    scale: int
    graph: TableauGraph
    generators: tuple[Columns, ...]

    @property
    def dim(self) -> int:
        return self.graph.size

    @property
    def n(self) -> int:
        return sum(self.shape)


def check_limits(shape, skew: bool = False) -> None:
    """ResourceGuardError for dim > MAX_DIM or, if skew, n! * dim^2 > MAX_SKEW_ENTRIES."""
    shape = check_partition(shape)
    dim = syt_count(shape)
    if dim > MAX_DIM:
        raise ResourceGuardError(f"shape {shape}: {dim} tableaux > oracle limit {MAX_DIM}")
    if skew and (entries := factorial(sum(shape)) * dim**2) > MAX_SKEW_ENTRIES:
        raise ResourceGuardError(
            f"shape {shape}: {entries} word-image entries > skew limit {MAX_SKEW_ENTRIES}"
        )


def build_seminormal(shape, q: int) -> SeminormalRep:
    """Construct the generator matrices for a shape at integer q >= 1.

    Entry k and k+1 in the same row of a basis tableau give eigenvalue q,
    in the same column eigenvalue -1; otherwise the generator mixes the
    tableau with its swap partner, the other end of its edge in
    `graph.edges`, through a 2x2 block of trace q - 1 and determinant -q:
    at axial distance d > 0 the diagonal entry is q^d/[d] and the
    off-diagonal entry 1; at -d it is -1/[d] and q[d-1][d+1]/[d]^2, since
    [d]^2 - q^(d-1) = [d-1][d+1]. At q = 1 this is Young's seminormal
    form. Entries are stored times `scale`, so all are integers.
    A module over `check_limits` raises ResourceGuardError before any
    tableau is enumerated.
    """
    shape = check_partition(shape)
    check_int(q, "parameter q", 1)
    check_limits(shape)
    graph = enumerate_syt(shape)
    n = sum(shape)
    qint = {k: q_int(k)(q) for k in range(1, n + 1)}
    scale = lcm(*(qint[k] ** 2 for k in range(2, n)))
    # The 2x2 blocks: s_k moves lo up one step to hi, so k lies above k+1 in lo.
    blocks = {}
    for lo, hi, k in graph.edges:
        t = graph.nodes[lo]
        e = t.content(k) - t.content(k + 1)
        if e < 2:
            raise InvariantViolation(f"axial distance {e} on the edge s_{k} from {t!r}")
        down = scale * q * qint[e - 1] * qint[e + 1] // qint[e] ** 2
        blocks[k, lo] = ((lo, -scale // qint[e]), (hi, down))
        blocks[k, hi] = ((lo, scale), (hi, scale * q**e // qint[e]))
    generators = tuple(
        tuple(
            blocks.get((k, idx))
            or ((idx, q * scale if t.position(k)[0] == t.position(k + 1)[0] else -scale),)
            for idx, t in enumerate(graph.nodes)
        )
        for k in range(1, n)
    )
    rep = SeminormalRep(shape=shape, q=q, scale=scale, graph=graph, generators=generators)
    verify_relations(rep)
    return rep


def verify_relations(rep: SeminormalRep) -> None:
    """Quadratic, braid and commutation relations as products of columns; raises on failure.

    For M = scale * T the quadratic one, (M + scale)(M - q scale) = 0, is checked
    in one product as (M - (q - 1) scale) M = q scale^2; the rest are homogeneous.
    """
    q, s = rep.q, rep.scale
    square = tuple(((c, q * s * s),) for c in range(rep.dim))
    for i, m in enumerate(rep.generators, start=1):
        if mat_mul(m, m, (1 - q) * s) != square:
            raise InvariantViolation(f"quadratic relation fails for s_{i} on {rep.shape} at q={q}")
    for i in range(len(rep.generators) - 1):
        a, b = rep.generators[i], rep.generators[i + 1]
        if mat_mul(a, mat_mul(b, a)) != mat_mul(b, mat_mul(a, b)):
            raise InvariantViolation(
                f"braid relation fails for s_{i + 1}, s_{i + 2} on {rep.shape} at q={q}"
            )
    for i in range(len(rep.generators)):
        for j in range(i + 2, len(rep.generators)):
            a, b = rep.generators[i], rep.generators[j]
            if mat_mul(a, b) != mat_mul(b, a):
                raise InvariantViolation(
                    f"commutation fails for s_{i + 1}, s_{j + 1} on {rep.shape} at q={q}"
                )


def word_image(rep: SeminormalRep, word) -> Columns:
    """The generators' product along a word as columns: scale^len(word) times its image."""
    image = identity_matrix(rep.dim)
    for k in word:
        if check_int(k, "generator index", 1) > rep.n - 1:
            raise ValueError(f"generator index {k} out of range 1..{rep.n - 1}")
        image = mat_mul(image, rep.generators[k - 1])
    return image


def all_word_images(rep: SeminormalRep) -> dict[tuple[int, ...], Columns]:
    """Integer images scale^length(w) * T_w of every basis element, as columns.

    Peeling a right descent writes T_w = T_w' * T_s with a shorter w', so
    images are filled in along one reduced word each, by increasing length
    with one `mat_mul` per group element.
    """
    identity, chain = _length_ordered_walk(rep.n)
    images: dict[tuple[int, ...], Columns] = {identity: identity_matrix(rep.dim)}
    for shorter, w, k in chain:
        images[w] = mat_mul(images[shorter], rep.generators[k - 1])
    return images


@lru_cache(maxsize=8)
def _length_ordered_walk(n: int):
    """The identity of S_n, then every other w by (length, w) as (w', w, k) with w = w' * s_k.

    s_k is the first right descent of w, so w' is one shorter and comes earlier.
    """
    perms = sorted(permutations(range(1, n + 1)), key=lambda p: (_perm_length(p), p))
    chain = []
    for w in perms[1:]:
        k = next(k for k in range(1, n) if w[k - 1] > w[k])
        shorter = list(w)
        shorter[k - 1], shorter[k] = w[k], w[k - 1]
        chain.append((tuple(shorter), w, k))
    return perms[0], tuple(chain)


# --- invariant bilinear forms ------------------------------------------------

@dataclass(frozen=True)
class GramForm:
    """Primitive integer Gram matrix of the invariant symmetric form, as columns."""

    matrix: Columns
    determinant: int


def gram_form(rep: SeminormalRep) -> GramForm:
    """The invariant form X (transpose(T_i) X = X T_i for all i), built diagonal and certified.

    For a diagonal X, invariance along the first edge s --s_k--> t into each
    tableau (the breadth-first tree of the graph) reads d_t M[t, s] = d_s M[s, t]
    for the stored M = scale * T_k, so d_0 = 1 fixes X. It is certified: every
    X M_i is symmetric and det X != 0. By `_jucys_murphy_diagonals` every
    invariant form is diagonal, hence a multiple of X. The returned matrix is
    the columns of the primitive integer X, whose first entry is positive.
    """
    dim, where = rep.dim, f"{rep.shape} at q={rep.q}"
    gens = rep.generators
    # d_t = num[t] / den[t], along the first edge s --s_k--> t into t in discovery order.
    num, den = {0: 1}, {0: 1}
    for s, t, k in rep.graph.edges:
        if t not in den and s in den:
            column = dict(gens[k - 1][s])
            off, _ = column.pop(t, 0), column.pop(s, 0)
            if not off or column:
                raise InvariantViolation(
                    f"column {s} of s_{k} on {where} is not a multiple of e_{s} "
                    f"plus a nonzero multiple of e_{t}"
                )
            num[t], den[t] = num[s] * dict(gens[k - 1][t]).get(s, 0), den[s] * off
    if len(den) < dim:
        lost = min(set(range(dim)) - set(den))
        raise InvariantViolation(f"tableau {lost} of {where} has no edge from the root side")
    common = lcm(*den.values())
    diagonal = [num[t] * (common // den[t]) for t in range(dim)]
    g = gcd(*diagonal)
    diagonal = [d // g for d in diagonal]
    matrix = tuple(((t, d),) if d else () for t, d in enumerate(diagonal))
    # X is symmetric, so transpose(M) X = X M says exactly that X M is symmetric.
    for i, m in enumerate(gens, start=1):
        if (p := mat_mul(matrix, m)) != transpose(p):
            raise InvariantViolation(f"diagonal form is not invariant under s_{i} on {where}")
    det = prod(diagonal)
    if det == 0:
        raise InvariantViolation(f"invariant form of {where} is degenerate")
    _jucys_murphy_diagonals(rep)
    return GramForm(matrix=matrix, determinant=det)


def _jucys_murphy_diagonals(rep: SeminormalRep) -> list[tuple[int, ...]]:
    """Per tableau t, the diagonal entries (J_2[t], ..., J_n[t]) of the Jucys-Murphy elements.

    J_1 = 0 and J_(k+1) = (M_k J_k + q^k scale^(2k-1)) M_k, which is
    q^k scale^(2k) L_(k+1) for L_(k+1) = T_k L_k T_k / q + T_k (Mathas 1999),
    so J_k e_t = q^k scale^(2(k-1)) [c_t(k)]_q e_t, c_t(k) the content of k.
    An X with transpose(M_k) X = X M_k for all k satisfies the same for every
    J_k. Raises InvariantViolation unless each J_k is diagonal and the tuples
    are pairwise distinct, which forces such an X to be diagonal.
    """
    where = f"{rep.shape} at q={rep.q}"
    jm: Columns = tuple(() for _ in range(rep.dim))
    labels: list[tuple[int, ...]] = [()] * rep.dim
    for k, m in enumerate(rep.generators, start=1):
        jm = mat_mul(mat_mul(m, jm), m, rep.q**k * rep.scale ** (2 * k - 1))
        if any(r != t for t, col in enumerate(jm) for r, _ in col):
            raise InvariantViolation(f"Jucys-Murphy element J_{k + 1} on {where} is not diagonal")
        labels = [label + (col[0][1] if col else 0,) for label, col in zip(labels, jm)]
    first: dict[tuple[int, ...], int] = {}
    for t, label in enumerate(labels):
        if (s := first.setdefault(label, t)) != t:
            raise InvariantViolation(f"J_2..J_n on {where} do not separate tableaux {s} and {t}")
    return labels


def _even_rep(shape, q: int, skew: bool = False) -> SeminormalRep:
    """The module of a shape with an even tableau count; odd ones are refused before building."""
    shape = check_partition(shape)
    dim = syt_count(shape)
    if dim % 2:
        raise NotIrrPlusError(
            f"shape {shape} has odd dimension {dim}: class is not scale-invariant"
        )
    if skew:
        check_limits(shape, skew=True)
    return build_seminormal(shape, q)


def determinant_via_gram(shape, q: int) -> int:
    """Gram determinant of an even-dimensional module; its class is the character's."""
    rep = _even_rep(shape, q)
    form = gram_form(rep)
    if form.determinant < 0:
        raise InvariantViolation(
            f"Gram determinant of {rep.shape} at q={q} is negative: {form.determinant}"
        )
    return form.determinant


def determinant_via_skew_element(shape, q: int, seed: int = 0) -> int:
    """Determinant of a random skew element; its class is the character's.

    A combination sum c_w (T_w - T_(w^-1)) over non-involutive basis
    elements is its own negative under the algebra involution, so the
    square class of its (generically nonzero) matrix determinant equals
    the character's determinant class. Weighting T_w by scale^(top - l(w)),
    top = n(n-1)/2, makes the element scale^top times the rational one, so
    the determinant gains the square scale^(top * dim) (dim is even).
    Retries with fresh coefficients up to the budget; reports failure
    rather than guessing. A shape whose n! * dim^2 image entries exceed
    MAX_SKEW_ENTRIES raises ResourceGuardError before the module is built.
    """
    check_int(seed, "seed", None)
    rep = _even_rep(shape, q, skew=True)
    images = all_word_images(rep)
    top = rep.n * (rep.n - 1) // 2
    pairs = sorted(
        (w, _perm_inverse(w), rep.scale ** (top - _perm_length(w)))
        for w in images
        if w < _perm_inverse(w)
    )
    rng = random.Random(seed)
    for _ in range(SKEW_ATTEMPTS):
        total = [[0] * rep.dim for _ in range(rep.dim)]
        for w, winv, weight in pairs:
            c = rng.randint(-SKEW_COEFF_BOUND, SKEW_COEFF_BOUND)
            if c == 0:
                continue
            c *= weight
            for s, (col, colinv) in enumerate(zip(images[w], images[winv])):
                for r, v in col:
                    total[r][s] += c * v
                for r, v in colinv:
                    total[r][s] -= c * v
        # Row r of the sum is column r of its transpose, which has the same determinant.
        det = bareiss_determinant(
            tuple(tuple((c, v) for c, v in enumerate(row) if v) for row in total)
        )
        if det != 0:
            return det
    raise SkewElementSearchError(
        f"no invertible skew element for {rep.shape} at q={q} in {SKEW_ATTEMPTS} attempts "
        f"(seed {seed})"
    )


# --- trace pairing on the regular module --------------------------------------

def verify_trace_pairing(n: int, q: int) -> bool:
    """Check the symmetrizing-trace pattern on the regular module.

    With the trace normalized to pick out the identity coefficient,
    tau(T_w T_w') must be q^length(w) when w' is the inverse of w and 0
    otherwise. Checked for all pairs; a mismatch raises InvariantViolation.
    """
    if check_int(n, "n", 2) > 5:
        raise ValueError(f"regular-module check supports 2 <= n <= 5, got {n}")
    check_int(q, "parameter q", 1)
    identity, chain = _length_ordered_walk(n)
    perms = [identity] + [w for _, w, _ in chain]
    index = {w: i for i, w in enumerate(perms)}

    # Left multiplication by T_(s_k) has column i holding T_k T_(perms[i]): T_(s_k w)
    # if the length goes up, else q T_(s_k w) + (q - 1) T_w. transposed[k - 1] is its transpose.
    transposed = []
    for k in range(1, n):
        columns = []
        for i, w in enumerate(perms):
            j = index[tuple(k + 1 if v == k else (k if v == k + 1 else v) for v in w)]
            if w.index(k) < w.index(k + 1):
                columns.append(((j, 1),))
            else:
                columns.append(tuple(sorted((r, v) for r, v in ((j, q), (i, q - 1)) if v)))
        transposed.append(transpose(tuple(columns)))

    # traces[i] = tau(T_(perms[i]) -) as a column: entry j is tau(T_(perms[i]) T_(perms[j])),
    # the identity row of the left-regular image of T_(perms[i]).
    traces = [((0, 1),)]
    for shorter, _, k in chain:
        traces.append(mat_mul(transposed[k - 1], (traces[index[shorter]],))[0])

    for w, trace in zip(perms, traces):
        winv, expected = _perm_inverse(w), q ** _perm_length(w)
        if trace != ((index[winv], expected),):
            nonzero = {perms[j]: v for j, v in trace}
            raise InvariantViolation(
                f"trace pairing fails at n={n}, q={q}: tau(T_w T_w') for w={w} is {nonzero} "
                f"over its nonzero w', expected {expected} at w'={winv} only"
            )
    return True
