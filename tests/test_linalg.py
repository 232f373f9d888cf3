import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from orthdet.linalg import IntegerKernelSolver, bareiss_determinant, mat_mul, rational_determinant


def naive_determinant(rows):
    """Cofactor expansion over Fractions; the slow reference."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * Fraction(rows[0][j]) * naive_determinant(minor)
    return total


int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(int_matrices)
def test_bareiss_matches_cofactor_expansion(rows):
    assert bareiss_determinant(rows) == naive_determinant(rows)


def _block_diagonal(blocks):
    size = sum(len(block) for block in blocks)
    rows = [[0] * size for _ in range(size)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[at + i][at:at + len(row)] = row
        at += len(block)
    return rows


permuted_block_matrices = (
    st.lists(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
            )
        ),
        min_size=1,
        max_size=3,
    )
    .map(_block_diagonal)
    .flatmap(
        lambda rows: st.permutations(range(len(rows))).map(
            lambda p: [[rows[i][j] for j in p] for i in p]
        )
    )
)


@given(st.one_of(int_matrices, permuted_block_matrices))
def test_bareiss_matches_cofactor_expansion_on_permuted_blocks(rows):
    # Block-diagonal matrices under a simultaneous row and column
    # permutation, whose zero patterns force pivot swaps, and dense ones.
    before = [list(row) for row in rows]
    assert bareiss_determinant(rows) == naive_determinant(rows)
    assert rows == before  # the elimination runs on a copy


def test_bareiss_handles_zero_pivots():
    rows = [[0, 1, 0], [1, 0, 0], [0, 0, 2]]
    assert bareiss_determinant(rows) == -2
    assert bareiss_determinant([[0, 0], [0, 0]]) == 0
    assert bareiss_determinant([]) == 1


@pytest.mark.parametrize("rows", [
    pytest.param(((Fraction(1, 2),),), id="fraction"),
    pytest.param(((2.9, 0), (0, 1)), id="float"),
    pytest.param(((True, 0), (0, True)), id="bool"),
    pytest.param(((1, 4),), id="row-past-the-end"),
    pytest.param(((1, 2), (2,)), id="short-row"),
])
def test_bareiss_refuses_non_integer_or_non_square_input(rows):
    # Truncating int() would read the first three as determinants 0, 2 and 1;
    # a row longer or shorter than the row count means the matrix is not square.
    with pytest.raises(ValueError):
        bareiss_determinant(rows)


def test_rational_determinant_scaling():
    a = (
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(1, 5), Fraction(1, 7)),
    )
    assert rational_determinant(a) == Fraction(1, 14) - Fraction(1, 15)


def dense_product(a, b):
    """Plain triple-loop product; the reference for mat_mul."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def test_matrix_helpers():
    rng = random.Random(3)

    def random_rows(rows, cols):
        return [[rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(cols)]
                for _ in range(rows)]

    for rows, inner, cols in [(1, 1, 1), (2, 3, 4), (4, 2, 3), (3, 3, 2), (5, 5, 5)]:
        x, y = random_rows(rows, inner), random_rows(inner, cols)
        assert mat_mul(x, y) == dense_product(x, y)
        if rows == inner:
            ident = [[int(i == j) for j in range(rows)] for i in range(rows)]
            assert mat_mul(ident, x) == x == mat_mul(x, ident)


def test_kernel_solver_simple_system():
    # x0 = 2 x2, x1 = -3 x2
    solver = IntegerKernelSolver(3)
    assert solver.add_equation({0: 1, 2: -2})
    assert solver.add_equation({1: 1, 2: 3})
    assert not solver.add_equation({0: 2, 2: -4})  # dependent
    assert solver.corank == 1
    assert solver.kernel_vector() == [2, -3, 1]


def test_kernel_solver_sign_is_canonical():
    # 3 x0 + 6 x1 = 0 has kernel direction (2, -1); the first nonzero
    # entry of the primitive representative must be positive
    solver = IntegerKernelSolver(2)
    solver.add_equation({0: 3, 1: 6})
    assert solver.kernel_vector() == [2, -1]


def test_kernel_solver_rejects_wrong_corank():
    solver = IntegerKernelSolver(3)
    solver.add_equation({0: 1})
    with pytest.raises(ValueError):
        solver.kernel_vector()  # two free columns
    solver.add_equation({1: 1})
    solver.add_equation({2: 5})
    with pytest.raises(ValueError):
        solver.kernel_vector()  # zero free columns


def _fraction_kernel_vector(solver):
    """The reference: back-substitution over Fractions with the free unknown 1,
    then the primitive integer multiple whose first nonzero entry is positive."""
    (free,) = [c for c in range(solver.num_vars) if c not in solver.rows]
    x = [Fraction(0)] * solver.num_vars
    x[free] = Fraction(1)
    for p in sorted(solver.rows, reverse=True):
        row = solver.rows[p]
        x[p] = Fraction(-sum(v * x[c] for c, v in row.items() if c != p), row[p])
    den = lcm(*(f.denominator for f in x))
    ints = [int(f * den) for f in x]
    g = gcd(*ints) * (1 if next(v for v in ints if v) > 0 else -1)
    return [v // g for v in ints], den


def test_kernel_vector_rescales_when_a_pivot_does_not_divide():
    # With x2 = 1, pivot 3 does not divide 2 (x1 = 2/3); after scaling x by 3,
    # pivot 2 does not divide 9 (x0 = 9/2): the kernel is (9, 4, 6).
    solver = IntegerKernelSolver(3)
    solver.add_equation({0: 2, 2: -3})
    solver.add_equation({1: 3, 2: -2})
    assert solver.kernel_vector() == [9, 4, 6] == _fraction_kernel_vector(solver)[0]
    rng = random.Random(11)
    rescaled = 0
    for _ in range(200):
        n = rng.randint(2, 7)
        kernel = [rng.randint(-9, 9) or 1 for _ in range(n)]
        solver = IntegerKernelSolver(n)
        while solver.corank > 1:
            i, j = rng.sample(range(n), 2)
            c = rng.randint(1, 5)
            solver.add_equation({i: c * kernel[j], j: -c * kernel[i]})
        expected, den = _fraction_kernel_vector(solver)
        rescaled += den > 1
        assert solver.kernel_vector() == expected
    assert rescaled > 50


def test_kernel_solver_random_consistency():
    # random rank-(n-1) systems built from a planted kernel vector
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 6)
        kernel = [rng.randint(-4, 4) or 1 for _ in range(n)]
        solver = IntegerKernelSolver(n)
        for _ in range(3 * n):
            # a row orthogonal to the planted kernel: pick two coordinates
            i, j = rng.sample(range(n), 2)
            row = {i: kernel[j], j: -kernel[i]}
            solver.add_equation(row)
        if solver.corank != 1:
            continue  # unlucky draw: planted direction not pinned yet
        found = solver.kernel_vector()
        # found must be proportional to the planted vector
        assert all(
            found[a] * kernel[b] == found[b] * kernel[a]
            for a in range(n)
            for b in range(n)
        )
