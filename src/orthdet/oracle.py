"""Independent verification of determinant classes via explicit representations.

Nothing here touches the tableau polynomials: the module builds the
seminormal matrices for a shape at a numeric parameter q (q = 1 gives the
symmetric group) and returns the Gram determinant of the invariant
bilinear form. The form is built diagonal along the tableau graph and
certified invariant, nondegenerate and unique up to scale: the
Jucys-Murphy elements act diagonally with distinct eigenvalues on the
tableau basis, so no solve is needed. A second, randomized route
builds the image of every basis element along a reduced word and returns
the determinant of a skew element. Both routes share one entry that refuses
a shape with an odd tableau count at the gate of `tableaux`, before
counting or building anything; `check_limits` bounds the dimension and
the skew route's n! images from the count alone. Both determinants are
returned as integers and never factored here: whether one lies in the
formula's square class is a perfect-square test (`SquareClass.contains`). Agreement of either route
with the polynomial formula is the package's central cross-check.

Each generator sends a basis tableau to itself and at most one swap
partner, so it is stored once, as block arrays (diagonal entry, swap
partner, off-diagonal entry) read from the tableau graph's edges and
content vectors, times one common scale that makes every entry an integer;
all arithmetic here is on ints, and no tableau object is built. The
certificates read the arrays and check, with 1x1 and 2x2 arithmetic, the
quadratic, braid and commutation relations (as each module is built, so a
bad block formula can never propagate silently), the form's invariance
and the Jucys-Murphy recursion. Every other matrix is a list of dense
integer rows (see `linalg`), and every generator reaches one through a
single kernel, `_act`, which returns x M for a row x in two terms per
entry: word images apply it to each row of the previous image, the
trace-pairing check to one row of the regular module, and the skew
route's sum of images goes to `bareiss_determinant` as it is.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations
from math import factorial, gcd, lcm, prod

from .errors import (
    InvariantViolation,
    ResourceGuardError,
    SkewElementSearchError,
    check_int,
    record,
)
from .intpoly import q_int
from .linalg import Matrix, bareiss_determinant
from .tableaux import TableauGraph, check_even_degree, check_partition, enumerate_syt, syt_count

# Ceiling on the module dimension, calibrated on the Gram route: on a 2-core
# VM at q = 3, build plus `gram_form` take 0.16 s at dim 990, (6,3,2), and
# 0.37-0.39 s at dim 2310, the largest n = 11 modules; all even shapes with
# n <= 11 take 5.4-9.5 s and 62 MB. Admits all n <= 11. The skew route has
# its own guard below.
MAX_DIM = 2310

# Ceiling on the n! * dim^2 ints that the skew route's dense word images hold.
# On a 2-core VM the worst n = 7 shape, (4,1,1,1) (2,016,000 ints), takes
# 2.1 s and 206 MB peak RSS at q = 9; the smallest even n = 8 one, (4,4)
# (7,902,720), takes 6.6 s and 924 MB at q = 3 but 13 s and 1.45 GB at q = 9.
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

Blocks = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@record
class SeminormalRep:
    """Generators of one irreducible module on the tableau basis.

    Generator i is M = scale * T_i, scale = lcm([k]_q^2 for 2 <= k <= n-1),
    stored only as its block arrays (a, p, b), one entry per tableau: column
    t of M is a[t] e_t + b[t] e_p[t], with p[t] = t and b[t] = 0 in a 1x1
    block. Every certificate reads these arrays; `word_image(rep, [i])`
    returns M as dense rows.
    """

    shape: tuple[int, ...]
    q: int
    scale: int
    graph: TableauGraph
    generators: tuple[Blocks, ...]

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

    Blocks are read from the content vectors (c_k the content of entry k):
    c_(k+1) = c_k + 1 (k, k+1 in one row) gives eigenvalue q, c_k - 1 (one
    column) -1; otherwise the generator mixes the tableau with its swap
    partner, the other end of its edge in `graph.edges`, through a 2x2 block
    of trace q - 1 and determinant -q: at axial distance d = c_k - c_(k+1) > 0
    the diagonal entry is q^d/[d] and the off-diagonal entry 1; at -d it is
    -1/[d] and q[d-1][d+1]/[d]^2, since [d]^2 - q^(d-1) = [d-1][d+1]. At
    q = 1 this is Young's seminormal form, stored times `scale` in integers.
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
    a = [[0] * graph.size for _ in range(1, n)]
    p = [list(range(graph.size)) for _ in range(1, n)]
    b = [[0] * graph.size for _ in range(1, n)]
    # The 2x2 blocks: s_k moves lo up one step to hi, so k lies above k+1 in lo.
    for lo, hi, k in graph.edges:
        c = graph.contents[lo]
        e = c[k - 1] - c[k]
        if e < 2:
            raise InvariantViolation(f"axial distance {e} on the edge s_{k} from contents {c}")
        down = scale * q * qint[e - 1] * qint[e + 1] // qint[e] ** 2
        ak, pk, bk = a[k - 1], p[k - 1], b[k - 1]
        ak[lo], pk[lo], bk[lo] = -scale // qint[e], hi, down
        ak[hi], pk[hi], bk[hi] = scale * q**e // qint[e], lo, scale
    # The 1x1 blocks: k and k+1 in one row (c_(k+1) = c_k + 1) or in one column.
    for k, (ak, pk) in enumerate(zip(a, p), start=1):
        for idx, c in enumerate(graph.contents):
            if pk[idx] == idx:
                ak[idx] = q * scale if c[k] == c[k - 1] + 1 else -scale
    generators = tuple(tuple(map(tuple, arrays)) for arrays in zip(a, p, b))
    rep = SeminormalRep(shape=shape, q=q, scale=scale, graph=graph, generators=generators)
    verify_relations(rep)
    return rep


def _blocks(rep: SeminormalRep) -> tuple[Blocks, ...]:
    """The generators' block arrays, once each is checked to pair tableaux both ways.

    As every certificate assumes, each partner map p must be an involution
    with b[t] != 0 exactly where p[t] != t; InvariantViolation otherwise.
    """
    for k, (_, p, b) in enumerate(rep.generators, start=1):
        if bad := [(t, u) for t, u in enumerate(p) if p[u] != t or (b[t] != 0) != (u != t)]:
            raise InvariantViolation(
                f"s_{k} on {rep.shape} at q={rep.q} pairs tableaux {bad[0]} one way only"
            )
    return rep.generators


def _triple(x, y, t: int) -> dict[int, int]:
    """Column t of X Y X for generators' block arrays x and y, as {row: value}, zeros dropped."""
    ax, px, bx = x
    ay, py, by = y
    out: dict[int, int] = {}
    for s1, c1 in ((t, ax[t]), (px[t], bx[t])):
        if c1:
            for s2, c2 in ((s1, ay[s1]), (py[s1], by[s1])):
                if c2:
                    for s3, c3 in ((s2, ax[s2]), (px[s2], bx[s2])):
                        out[s3] = out.get(s3, 0) + c1 * c2 * c3
    return {r: v for r, v in out.items() if v}


def verify_relations(rep: SeminormalRep) -> None:
    """Quadratic, braid and commutation relations on the generators' blocks; raises on failure.

    For M = scale * T, (M + scale)(M - q scale) = 0 iff each 1x1 block is
    q scale or -scale and each 2x2 block has trace (q - 1) scale and
    determinant -q scale^2 (Cayley-Hamilton). The braid relation is compared
    column by column. For |i - j| >= 2, M_i and M_j commute if p_i and p_j
    commute and a_i, b_i are constant along p_j (and a_j, b_j along p_i);
    t, p_i t, p_j t and p_i p_j t must also be distinct, as for tableaux,
    when both partners exist.
    """
    q, s, dim = rep.q, rep.scale, rep.dim
    blocks = _blocks(rep)
    for i, (a, p, b) in enumerate(blocks, start=1):
        if not all(a[t] in (q * s, -s) if u == t else
                   a[t] + a[u] == (q - 1) * s and a[t] * a[u] - b[t] * b[u] == -q * s * s
                   for t, u in enumerate(p)):
            raise InvariantViolation(f"quadratic relation fails for s_{i} on {rep.shape} at q={q}")
    for i in range(len(blocks) - 1):
        x, y = blocks[i], blocks[i + 1]
        if any(_triple(x, y, t) != _triple(y, x, t) for t in range(dim)):
            raise InvariantViolation(
                f"braid relation fails for s_{i + 1}, s_{i + 2} on {rep.shape} at q={q}"
            )
    for i, (ai, pi, bi) in enumerate(blocks):
        for j in range(i + 2, len(blocks)):
            aj, pj, bj = blocks[j]
            if any(pi[v] != pj[u] or ai[v] != ai[t] or bi[v] != bi[t] or aj[u] != aj[t]
                   or bj[u] != bj[t] or (u != t != v and len({t, u, v, pi[v]}) < 4)
                   for t, u, v in zip(range(dim), pi, pj)):
                raise InvariantViolation(
                    f"commutation fails for s_{i + 1}, s_{j + 1} on {rep.shape} at q={q}"
                )


def _act(generator: Blocks, x) -> list[int]:
    """x M for a row x and a generator M given by its block arrays.

    Column t of M is a[t] e_t + b[t] e_p[t], so entry t is a[t] x[t] + b[t] x[p[t]].
    """
    a, p, b = generator
    return [at * xt + bt * x[pt] for at, xt, pt, bt in zip(a, x, p, b)]


def word_image(rep: SeminormalRep, word) -> Matrix:
    """The generators' product along a word as dense rows: scale^len(word) times its image.

    Each generator acts on every row of the product so far (`_act`).
    """
    image = [[1 if r == c else 0 for c in range(rep.dim)] for r in range(rep.dim)]
    for k in word:
        if check_int(k, "generator index", 1) > rep.n - 1:
            raise ValueError(f"generator index {k} out of range 1..{rep.n - 1}")
        generator = rep.generators[k - 1]
        image = [_act(generator, row) for row in image]
    return image


def all_word_images(rep: SeminormalRep) -> dict[tuple[int, ...], Matrix]:
    """Integer images scale^length(w) * T_w of every basis element, as dense rows.

    Peeling a right descent writes T_w = T_w' * T_s with a shorter w', so
    images are filled in along one reduced word each, by increasing length,
    T_s acting on each row of the image of w' (`_act`).
    """
    identity, chain = _length_ordered_walk(rep.n)
    images = {identity: word_image(rep, ())}
    for shorter, w, k in chain:
        generator = rep.generators[k - 1]
        images[w] = [_act(generator, row) for row in images[shorter]]
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

@record
class GramForm:
    """The invariant symmetric form's primitive integer Gram matrix, which is diagonal."""

    diagonal: tuple[int, ...]
    determinant: int


def gram_form(rep: SeminormalRep) -> GramForm:
    """The invariant form X (T_i^T X = X T_i for all i), built diagonal and certified.

    For a diagonal X, invariance along the first edge s --s_k--> t into each
    tableau (the breadth-first tree of the graph) reads d_t M[t, s] = d_s M[s, t]
    for the stored M = scale * T_k, so d_0 = 1 fixes X. It is certified entry
    by entry: X M_i is symmetric iff d_p(t) M_i[p(t), t] = d_t M_i[t, p(t)] for
    every t and partner p(t). Each d_t is a ratio of nonzero partner entries
    (see `_blocks`), so det X != 0. By `_jucys_murphy_diagonals` every
    invariant form is diagonal, hence a multiple of X. The returned diagonal
    is that of the primitive integer X, whose first entry is positive.
    """
    dim, where = rep.dim, f"{rep.shape} at q={rep.q}"
    blocks = _blocks(rep)
    # d_t = num[t] / den[t], along the first edge s --s_k--> t into t in discovery order.
    num, den = {0: 1}, {0: 1}
    for s, t, k in rep.graph.edges:
        if t not in den and s in den:
            _, p, b = blocks[k - 1]
            if p[s] != t:
                raise InvariantViolation(
                    f"column {s} of s_{k} on {where} is not a multiple of e_{s} "
                    f"plus a nonzero multiple of e_{t}"
                )
            num[t], den[t] = num[s] * b[t], den[s] * b[s]
    if len(den) < dim:
        lost = min(set(range(dim)) - set(den))
        raise InvariantViolation(f"tableau {lost} of {where} has no edge from the root side")
    common = lcm(*den.values())
    diagonal = [num[t] * (common // den[t]) for t in range(dim)]
    g = gcd(*diagonal)
    diagonal = [d // g for d in diagonal]
    for i, (_, p, b) in enumerate(blocks, start=1):
        if any(diagonal[u] * b[t] != diagonal[t] * b[u] for t, u in enumerate(p)):
            raise InvariantViolation(f"diagonal form is not invariant under s_{i} on {where}")
    _jucys_murphy_diagonals(rep, blocks)
    return GramForm(diagonal=tuple(diagonal), determinant=prod(diagonal))


def _jucys_murphy_diagonals(rep: SeminormalRep, blocks) -> list[tuple[int, ...]]:
    """Per tableau t, the diagonal entries (J_2[t], ..., J_n[t]) of the Jucys-Murphy elements.

    J_1 = 0 and J_(k+1) = (M_k J_k + c) M_k / scale^2 for c = q^k scale, which
    is q^k L_(k+1) for L_(k+1) = T_k L_k T_k / q + T_k (Mathas 1999), so
    J_k e_t = q^k [c_t(k)]_q e_t, c_t(k) the content of k. For J_k = diag(j)
    and M_k e_t = a_t e_t + b_t e_u as in `SeminormalRep`, column t of
    the product is (a_t (a_t j_t + c) + b_t b_u j_u) e_t + b_t (a_t j_t + a_u j_u + c) e_u.
    Each division must be exact, so entries stay the size of those values.
    An X with M_k^T X = X M_k for all k satisfies the same for every
    J_k. Raises InvariantViolation unless each J_k is diagonal and the tuples
    are pairwise distinct, which forces such an X to be diagonal.
    """
    where = f"{rep.shape} at q={rep.q}"
    square = rep.scale**2
    j = [0] * rep.dim
    labels: list[tuple[int, ...]] = [()] * rep.dim
    for k, (a, p, b) in enumerate(blocks, start=1):
        c = rep.q**k * rep.scale
        if any(b[t] * (a[t] * j[t] + a[u] * j[u] + c) for t, u in enumerate(p)):
            raise InvariantViolation(f"Jucys-Murphy element J_{k + 1} on {where} is not diagonal")
        entries = [a[t] * (a[t] * j[t] + c) + b[t] * b[u] * j[u] for t, u in enumerate(p)]
        if any(v % square for v in entries):
            raise InvariantViolation(
                f"Jucys-Murphy element J_{k + 1} on {where} is not scale^2 times an integer matrix"
            )
        j = [v // square for v in entries]
        labels = [label + (v,) for label, v in zip(labels, j)]
    first: dict[tuple[int, ...], int] = {}
    for t, label in enumerate(labels):
        if (s := first.setdefault(label, t)) != t:
            raise InvariantViolation(f"J_2..J_n on {where} do not separate tableaux {s} and {t}")
    return labels


def _even_rep(shape, q: int, skew: bool = False) -> SeminormalRep:
    """The module of a shape with an even tableau count; odd ones are refused before building."""
    shape = check_partition(shape)
    check_even_degree(shape)
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
            total = [[s + c * (x - y) for s, x, y in zip(*rows)]
                     for rows in zip(total, images[w], images[winv])]
        det = bareiss_determinant(total)
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

    # Left multiplication by T_k as block arrays: column i holds T_k T_(perms[i]), which is
    # T_(s_k w) if the length goes up, else q T_(s_k w) + (q - 1) T_w.
    left = []
    for k in range(1, n):
        up = [w.index(k) < w.index(k + 1) for w in perms]
        partner = [index[tuple(k + 1 if v == k else (k if v == k + 1 else v) for v in w)]
                   for w in perms]
        left.append(([0 if u else q - 1 for u in up], partner, [1 if u else q for u in up]))

    # traces[i] is the identity row of the left-regular image of T_(perms[i]): entry j is
    # tau(T_(perms[i]) T_(perms[j])). The row of T_w = T_w' T_k is that of w' times T_k.
    traces = [[1] + [0] * (len(perms) - 1)]
    for shorter, _, k in chain:
        traces.append(_act(left[k - 1], traces[index[shorter]]))

    for w, trace in zip(perms, traces):
        winv, expected = _perm_inverse(w), q ** _perm_length(w)
        if trace != [expected if j == index[winv] else 0 for j in range(len(perms))]:
            nonzero = {perms[j]: v for j, v in enumerate(trace) if v}
            raise InvariantViolation(
                f"trace pairing fails at n={n}, q={q}: tau(T_w T_w') for w={w} is {nonzero} "
                f"over its nonzero w', expected {expected} at w'={winv} only"
            )
    return True
