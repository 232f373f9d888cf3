"""Independent verification of determinant classes via explicit representations.

Nothing here touches the tableau polynomials: the module builds the
seminormal matrices for a shape at a numeric parameter q (q = 1 gives the
symmetric group), solves for the invariant symmetric bilinear form by
plain exact elimination, and reads the determinant class off the Gram
matrix. A second, randomized route multiplies out basis-element images
along reduced words and takes the determinant of a skew element. Agreement
of either route with the polynomial formula is the package's central
cross-check.

Each generator sends a basis tableau to itself and at most one swap
partner, so it is stored as its sparse columns (see `linalg`) and checked
against the quadratic, braid and commutation relations on every basis
vector as it is built; a bad block formula can never propagate silently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd

from .errors import InvariantViolation, NotIrrPlusError, ResourceGuardError, SkewElementSearchError
from .intpoly import q_int
from .linalg import (
    Columns,
    IntegerKernelSolver,
    Matrix,
    bareiss_determinant,
    identity_matrix,
    mat_mul,
    mat_sub,
    mat_transpose,
    rational_determinant,
)
from .squareclass import SquareClass, class_of_integer, class_of_rational
from .tableaux import (
    TableauGraph, apply_simple_transposition, check_partition, enumerate_syt, syt_count
)

# Ceiling on the module dimension: the Gram solve takes about 14 s at dim 216
# (dim(dim+1)/2 unknowns), so one shape stays near 20 s; admits all n <= 9.
MAX_DIM = 256

# Random skew elements: how many to try, and the range of their coefficients.
SKEW_ATTEMPTS = 32
SKEW_COEFF_BOUND = 5


# --- permutations as tuples (perm[i] = image of i+1) ------------------------

def _perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def _perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a o b)(x) = a(b(x))."""
    return tuple(a[v - 1] for v in b)


def _perm_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v - 1] = i + 1
    return tuple(inv)


def _perm_length(a: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(a)) for j in range(i + 1, len(a)) if a[i] > a[j])


def _reduced_word(perm: tuple[int, ...]) -> tuple[int, ...]:
    """A reduced word: perm = s_(word[0]) o ... o s_(word[-1])."""
    p = list(perm)
    word = []
    while True:
        for k in range(len(p) - 1):
            if p[k] > p[k + 1]:
                word.append(k + 1)
                p[k], p[k + 1] = p[k + 1], p[k]
                break
        else:
            break
    word.reverse()
    return tuple(word)


# --- seminormal representations ---------------------------------------------

@dataclass(frozen=True)
class SeminormalRep:
    """Generators of one irreducible module on the tableau basis.

    Generator i is stored as its columns (see `linalg`): column b holds the
    entries of T_i at tableau b and at its swap partner, if any;
    `word_image(rep, [i])` is the dense matrix.
    """

    shape: tuple[int, ...]
    q: int
    graph: TableauGraph
    generators: tuple[Columns, ...]

    @property
    def dim(self) -> int:
        return self.graph.size

    @property
    def n(self) -> int:
        return sum(self.shape)


def _diag_coefficient(d: int, q: int) -> Fraction:
    """Diagonal entry q^d / [d]_q (for d > 0) resp. -1/[|d|]_q (for d < 0).

    These are the two roots' mixing weights: the pair at axial distance d
    and -d sums to q - 1, as the quadratic relation demands; the same
    formulas specialize to Young's seminormal form at q = 1.
    """
    if d > 0:
        return Fraction(q**d, q_int(d)(q))
    return Fraction(-1, q_int(-d)(q))


def build_seminormal(shape, q: int) -> SeminormalRep:
    """Construct the generator matrices for a shape at integer q >= 1.

    Entry k and k+1 in the same row of a basis tableau give eigenvalue q,
    in the same column eigenvalue -1; otherwise the generator mixes the
    tableau with its swap partner through a 2x2 block of trace q - 1 and
    determinant -q. The partner with positive axial distance carries
    off-diagonal entry 1, the other the value completing the determinant.
    A module of dimension above MAX_DIM raises ResourceGuardError before
    any tableau is enumerated.
    """
    shape = check_partition(shape)
    if q < 1:
        raise ValueError(f"parameter q must be >= 1, got {q}")
    dim = syt_count(shape)
    if dim > MAX_DIM:
        raise ResourceGuardError(f"shape {shape}: {dim} tableaux > oracle limit {MAX_DIM}")
    graph = enumerate_syt(shape)
    n = sum(shape)
    generators = []
    for i in range(1, n):
        columns = []
        for idx, t in enumerate(graph.nodes):
            (r1, c1), (r2, c2) = t.position(i), t.position(i + 1)
            if r1 == r2:
                columns.append(((idx, Fraction(q)),))
                continue
            if c1 == c2:
                columns.append(((idx, Fraction(-1)),))
                continue
            partner = apply_simple_transposition(i, t)
            d = t.content(i + 1) - t.content(i)
            if abs(d) < 2:
                raise InvariantViolation(
                    f"axial distance {d} in the mixing branch for {t!r}, s_{i}"
                )
            alpha = _diag_coefficient(d, q)
            off = Fraction(1) if d > 0 else alpha * _diag_coefficient(-d, q) + q
            columns.append(tuple(sorted(((idx, alpha), (graph.index(partner), off)))))
        generators.append(tuple(columns))
    rep = SeminormalRep(shape=shape, q=q, graph=graph, generators=tuple(generators))
    verify_relations(rep)
    return rep


def _apply(columns: Columns, vec: dict, shift=0) -> dict:
    """(T + shift) vec for T given by its columns and vec as {index: value}, zeros dropped."""
    out = {b: shift * x for b, x in vec.items()}
    for b, x in vec.items():
        for r, v in columns[b]:
            out[r] = out.get(r, 0) + v * x
    return {r: v for r, v in out.items() if v}


def verify_relations(rep: SeminormalRep) -> None:
    """Quadratic, braid and commutation relations on every basis vector; raises on failure."""
    q = rep.q
    basis = [{b: 1} for b in range(rep.dim)]
    for i, m in enumerate(rep.generators, start=1):
        if any(_apply(m, _apply(m, e, 1), -q) for e in basis):
            raise InvariantViolation(f"quadratic relation fails for s_{i} on {rep.shape} at q={q}")
    for i in range(len(rep.generators) - 1):
        a, b = rep.generators[i], rep.generators[i + 1]
        if any(_apply(a, _apply(b, _apply(a, e))) != _apply(b, _apply(a, _apply(b, e)))
               for e in basis):
            raise InvariantViolation(
                f"braid relation fails for s_{i + 1}, s_{i + 2} on {rep.shape} at q={q}"
            )
    for i in range(len(rep.generators)):
        for j in range(i + 2, len(rep.generators)):
            a, b = rep.generators[i], rep.generators[j]
            if any(_apply(a, _apply(b, e)) != _apply(b, _apply(a, e)) for e in basis):
                raise InvariantViolation(
                    f"commutation fails for s_{i + 1}, s_{j + 1} on {rep.shape} at q={q}"
                )


def word_image(rep: SeminormalRep, word) -> Matrix:
    """Dense product of generator matrices along a word, left to right."""
    image = identity_matrix(rep.dim)
    for k in word:
        if not 1 <= k <= rep.n - 1:
            raise ValueError(f"generator index {k} out of range 1..{rep.n - 1}")
        image = mat_mul(image, rep.generators[k - 1])
    return image


def all_word_images(rep: SeminormalRep) -> dict[tuple[int, ...], Matrix]:
    """Images of every basis element T_w, built along one reduced word each.

    Peeling a right descent writes T_w = T_w' * T_s with a shorter w', so
    images are filled in by increasing length with one matrix product per
    group element.
    """
    n = rep.n
    perms = sorted(_all_perms(n), key=lambda p: (_perm_length(p), p))
    images: dict[tuple[int, ...], Matrix] = {perms[0]: identity_matrix(rep.dim)}
    for w in perms[1:]:
        for k in range(n - 1):
            if w[k] > w[k + 1]:
                shorter = list(w)
                shorter[k], shorter[k + 1] = shorter[k + 1], shorter[k]
                images[w] = mat_mul(images[tuple(shorter)], rep.generators[k])
                break
    return images


@lru_cache(maxsize=8)
def _all_perms(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(range(1, n + 1)))


# --- invariant bilinear forms ------------------------------------------------

@dataclass(frozen=True)
class GramForm:
    """Primitive integer Gram matrix of the invariant symmetric form."""

    rep: SeminormalRep
    matrix: tuple[tuple[int, ...], ...]
    determinant: int


def gram_form(rep: SeminormalRep) -> GramForm:
    """Solve transpose(T_i) X = X T_i for symmetric X by exact elimination.

    The solution space must be one-dimensional (the module is simple and
    self-dual); the returned matrix is the primitive integer representative.
    """
    dim = rep.dim
    var_of: dict[tuple[int, int], int] = {}
    for a in range(dim):
        for b in range(a, dim):
            var_of[(a, b)] = len(var_of)
    solver = IntegerKernelSolver(len(var_of))

    for columns in rep.generators:
        for a in range(dim):
            for b in range(a + 1, dim):
                # (T^T X - X T)[a,b] = sum_c T[c,a] X[c,b] - sum_c X[a,c] T[c,b];
                # the matrix is antisymmetric, so strict upper entries suffice.
                row: dict[int, Fraction] = {}
                for c, val in columns[a]:
                    v = var_of[(c, b) if c <= b else (b, c)]
                    row[v] = row.get(v, 0) + val
                for c, val in columns[b]:
                    v = var_of[(a, c) if a <= c else (c, a)]
                    row[v] = row.get(v, 0) - val
                den = 1
                for val in row.values():
                    den = den * val.denominator // gcd(den, val.denominator)
                solver.add_equation({v: int(val * den) for v, val in row.items()})

    if solver.corank != 1:
        raise InvariantViolation(
            f"invariant form space of {rep.shape} at q={rep.q} has dimension "
            f"{solver.corank}, expected 1"
        )
    vec = solver.kernel_vector()
    x = [[0] * dim for _ in range(dim)]
    for (a, b), v in var_of.items():
        x[a][b] = x[b][a] = vec[v]
    matrix = tuple(tuple(row) for row in x)

    # X is symmetric, so transpose(T) X = X T says exactly that X T is symmetric.
    for i, m in enumerate(rep.generators, start=1):
        xt = mat_mul(matrix, m)
        if xt != mat_transpose(xt):
            raise InvariantViolation(
                f"solved form is not invariant under s_{i} on {rep.shape} at q={rep.q}"
            )
    det = bareiss_determinant(matrix)
    if det == 0:
        raise InvariantViolation(f"invariant form of {rep.shape} at q={rep.q} is degenerate")
    return GramForm(rep=rep, matrix=matrix, determinant=det)


def determinant_via_gram(shape, q: int) -> SquareClass:
    """Determinant class of an even-dimensional module from its Gram matrix."""
    shape = check_partition(shape)
    rep = build_seminormal(shape, q)
    if rep.dim % 2:
        raise NotIrrPlusError(
            f"shape {shape} has odd dimension {rep.dim}: class is not scale-invariant"
        )
    form = gram_form(rep)
    if form.determinant < 0:
        raise InvariantViolation(
            f"Gram determinant of {shape} at q={q} is negative: {form.determinant}"
        )
    return class_of_integer(form.determinant)


def determinant_via_skew_element(shape, q: int, seed: int = 0) -> SquareClass:
    """Determinant class from the determinant of a random skew element.

    A combination sum c_w (T_w - T_(w^-1)) over non-involutive basis
    elements is its own negative under the algebra involution, so the
    square class of its (generically nonzero) matrix determinant equals
    the character's determinant class. Retries with fresh coefficients up
    to the budget; reports failure rather than guessing.
    """
    shape = check_partition(shape)
    rep = build_seminormal(shape, q)
    if rep.dim % 2:
        raise NotIrrPlusError(
            f"shape {shape} has odd dimension {rep.dim}: class is not scale-invariant"
        )
    images = all_word_images(rep)
    pairs = sorted(
        (w, _perm_inverse(w))
        for w in images
        if w < _perm_inverse(w)
    )
    differences = [mat_sub(images[w], images[winv]) for w, winv in pairs]
    rng = random.Random(seed)
    for _ in range(SKEW_ATTEMPTS):
        total = [[Fraction(0)] * rep.dim for _ in range(rep.dim)]
        for diff in differences:
            c = rng.randint(-SKEW_COEFF_BOUND, SKEW_COEFF_BOUND)
            if c == 0:
                continue
            for r in range(rep.dim):
                row = diff[r]
                trow = total[r]
                for s in range(rep.dim):
                    if row[s]:
                        trow[s] += c * row[s]
        det = rational_determinant(tuple(tuple(row) for row in total))
        if det != 0:
            return class_of_rational(det)
    raise SkewElementSearchError(
        f"no invertible skew element for {shape} at q={q} in {SKEW_ATTEMPTS} attempts "
        f"(seed {seed})"
    )


# --- trace pairing on the regular module --------------------------------------

def verify_trace_pairing(n: int, q: int, *, max_length_sum: int | None = None) -> bool:
    """Check the symmetrizing-trace pattern on the regular module.

    With the trace normalized to pick out the identity coefficient,
    tau(T_w T_w') must be q^length(w) when w' is the inverse of w and 0
    otherwise. Checked for all pairs (optionally capped by total length);
    a mismatch raises InvariantViolation.
    """
    if not 2 <= n <= 5:
        raise ValueError(f"regular-module check supports 2 <= n <= 5, got {n}")
    perms = sorted(_all_perms(n), key=lambda p: (_perm_length(p), p))
    index = {w: i for i, w in enumerate(perms)}
    lengths = [_perm_length(w) for w in perms]
    size = len(perms)

    # neighbor[k][i] = index of s_(k+1) o perms[i]; up[k][i] = length went up
    neighbor = []
    up = []
    for k in range(1, n):
        nb = []
        upflags = []
        for w in perms:
            swapped = tuple(k + 1 if v == k else (k if v == k + 1 else v) for v in w)
            nb.append(index[swapped])
            upflags.append(w.index(k) < w.index(k + 1))
        neighbor.append(nb)
        up.append(upflags)

    def right_apply(vec: list[int], k: int) -> list[int]:
        # out = vec^T L(T_(s_k)) read off column by column
        nb, uf = neighbor[k - 1], up[k - 1]
        out = [0] * size
        for col in range(size):
            if uf[col]:
                out[col] = vec[nb[col]]
            else:
                out[col] = q * vec[nb[col]] + (q - 1) * vec[col]
        return out

    # rows[i] = identity row of the left-regular image of T_(perms[i])
    rows: list[list[int] | None] = [None] * size
    first = [0] * size
    first[index[_perm_identity(n)]] = 1
    rows[0] = first
    for i, w in enumerate(perms[1:], start=1):
        if max_length_sum is not None and lengths[i] > max_length_sum:
            continue
        for k in range(n - 1):
            if w[k] > w[k + 1]:
                shorter = list(w)
                shorter[k], shorter[k + 1] = shorter[k + 1], shorter[k]
                rows[i] = right_apply(rows[index[tuple(shorter)]], k + 1)
                break

    for i, w in enumerate(perms):
        if rows[i] is None:
            continue
        winv_idx = index[_perm_inverse(w)]
        for j in range(size):
            if max_length_sum is not None and lengths[i] + lengths[j] > max_length_sum:
                continue
            expected = q ** lengths[i] if j == winv_idx else 0
            if rows[i][j] != expected:
                raise InvariantViolation(
                    f"trace pairing fails at n={n}, q={q}: tau(T_w T_w') = {rows[i][j]}, "
                    f"expected {expected} for w={w}, w'={perms[j]}"
                )
    return True
