"""Smith normal form: transform correctness, divisibility, and the
minors-gcd oracle for invariant factors."""

import math
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import int_det, minor_gcd_invariants, rat_rank
from thickgen import budget, snf
from thickgen.errors import NoSolutionError, StepBudgetExceededError
from thickgen.matrices import Matrix
from thickgen.rings import GF, QQ, ZZ, poly_ring
from thickgen.snf import (
    hermite_basis,
    invariant_factors,
    kernel_basis,
    smith_normal_form,
    solve_exact,
)


def int_matrix(rows):
    return Matrix(ZZ, rows, len(rows), len(rows[0]) if rows else 0)


def random_int_matrix(rng, max_dim=5, span=30):
    nr = rng.randint(1, max_dim)
    nc = rng.randint(1, max_dim)
    return [[rng.randint(-span, span) for _ in range(nc)] for _ in range(nr)]


def check_snf(rows):
    A = int_matrix(rows)
    res = smith_normal_form(A)
    assert res.U @ A @ res.V == res.D
    diag = res.diagonal
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
    assert all(d >= 0 for d in diag)
    return res


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=120, deadline=None)
def test_snf_random_small(seed):
    rng = random.Random(seed)
    check_snf(random_int_matrix(rng, max_dim=4))


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=60, deadline=None)
def test_invariants_match_minor_gcds(seed):
    rng = random.Random(seed)
    rows = random_int_matrix(rng, max_dim=4, span=12)
    res = check_snf(rows)
    assert list(res.invariants) == minor_gcd_invariants(rows)


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=60, deadline=None)
def test_transforms_are_unimodular(seed):
    rng = random.Random(seed)
    rows = random_int_matrix(rng, max_dim=4)
    res = smith_normal_form(int_matrix(rows))
    assert abs(int_det(res.U.to_lists())) == 1
    assert abs(int_det(res.V.to_lists())) == 1


def random_square(n):
    rng = random.Random(n)
    return [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", [12, 16, 20])
def test_large_integer_smith_forms_keep_transforms_small(n):
    # a pivot-search Smith form did not finish a 12x12 in 300 s, and its
    # transform entries reached 65k bits at 10x10
    rows = random_square(n)
    A = int_matrix(rows)
    res = smith_normal_form(A)
    assert res.U @ A @ res.V == res.D
    assert abs(int_det(res.U.to_lists())) == 1
    assert abs(int_det(res.V.to_lists())) == 1
    det = int_det(rows)
    if det:
        assert math.prod(res.invariants) == abs(det)
    assert all(abs(x).bit_length() < 512 for X in (res.U, res.V) for r in X.to_lists() for x in r)


@pytest.mark.parametrize("n", [12, 16, 20])
def test_large_integer_invariants_match_sympy(n):
    pytest.importorskip("sympy")
    from sympy import Matrix as SympyMatrix
    from sympy.matrices.normalforms import invariant_factors

    rows = random_square(n)
    want = [abs(int(x)) for x in invariant_factors(SympyMatrix(rows)) if x != 0]
    assert list(smith_normal_form(int_matrix(rows)).invariants) == want


@pytest.mark.parametrize(
    "rows,expected",
    [
        ([[2, 4], [6, 8]], (2, 4)),
        ([[1, 0], [0, 1]], (1, 1)),
        ([[0, 0], [0, 0]], ()),
        ([[2, 0], [0, 3]], (1, 6)),
        ([[4, 6], [6, 9]], (1,)),       # rank 1: gcd 1, det 0
        ([[12]], (12,)),
    ],
)
def test_snf_known_values(rows, expected):
    res = check_snf(rows)
    assert tuple(res.invariants) == expected


def test_kernel_basis_spans_null_space():
    A = int_matrix([[2, 4, 6], [1, 2, 3]])
    K = kernel_basis(A)
    assert (A @ K).is_zero()
    assert K.ncols == 2  # rank 1 in 3 columns


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=60, deadline=None)
def test_kernel_basis_is_saturated(seed):
    # a basis of ker(A) itself, not of a sublattice: it is killed by A,
    # has nullity many columns, and spans a direct summand (all Smith
    # invariants 1)
    rng = random.Random(seed)
    rows = random_int_matrix(rng, max_dim=5, span=12)
    A = int_matrix(rows)
    K = kernel_basis(A)
    assert (A @ K).is_zero()
    assert K.ncols == A.ncols - rat_rank(rows)
    assert all(d == 1 for d in smith_normal_form(K).invariants)


@pytest.mark.parametrize("solver", ["kernel_basis", "solve_exact"])
def test_kernel_basis_runs_no_smith_form(solver, monkeypatch):
    def refuse(A):
        raise AssertionError(f"{solver} called smith_normal_form")

    monkeypatch.setattr(snf, "smith_normal_form", refuse)
    A = int_matrix([[2, 4, 6], [1, 2, 3], [0, 5, 7]])
    if solver == "kernel_basis":
        K = kernel_basis(A)
        assert (A @ K).is_zero() and K.ncols == 1
    else:
        B = int_matrix([[6, 2], [3, 1], [12, 5]])
        assert A @ solve_exact(A, B) == B


@pytest.mark.parametrize(
    "solver", [kernel_basis, hermite_basis, solve_exact, smith_normal_form, invariant_factors]
)
def test_hermite_forms_run_under_the_step_budget(solver, monkeypatch):
    # the gcd cascade ticks its own counter, so it cannot run unbounded,
    # and a Smith form does all its elimination in Hermite passes
    monkeypatch.setattr(budget, "DEFAULT_MAX_STEPS", 2)
    rng = random.Random(57)
    A = int_matrix([[rng.randint(-50, 50) for _ in range(6)] for _ in range(4)])
    args = (A, int_matrix([[1]] * 4)) if solver is solve_exact else (A,)
    with pytest.raises(StepBudgetExceededError):
        solver(*args)


def test_image_basis_generates_columns():
    A = int_matrix([[2, 4], [0, 0]])
    B = hermite_basis(A)
    # every original column solves in terms of the basis
    assert solve_exact(B, A) is not None
    assert B.ncols == 1


def test_solve_exact_finds_and_refuses():
    A = int_matrix([[2, 0], [0, 3]])
    B = int_matrix([[4], [9]])
    X = solve_exact(A, B)
    assert A @ X == B
    with pytest.raises(NoSolutionError):
        solve_exact(int_matrix([[2]]), int_matrix([[3]]))
    # solvable over Q (x = (3/2, 0)) but not over Z: gcd(2, 4) = 2 does not divide 3
    with pytest.raises(NoSolutionError):
        solve_exact(int_matrix([[2, 4]]), int_matrix([[3]]))
    # rank deficient: the second row is twice the first, B lies in the image
    A = int_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    B = int_matrix([[6, 1], [12, 2], [2, 0]])
    assert A @ solve_exact(A, B) == B
    # same A, B off the image: row 2 is not twice row 1
    with pytest.raises(NoSolutionError):
        solve_exact(A, int_matrix([[6], [11], [2]]))
    for field in (QQ, GF(5)):
        R = poly_ring(field, ["x"])
        x = R.var_elem().payload
        one = R.one()
        # A has full rank, so X is the only solution
        A = Matrix(R, [[x, one], [R.zero(), R.add(x, one)]], 2, 2)
        X = Matrix(R, [[one, x], [x, one]], 2, 2)
        assert solve_exact(A, A @ X) == X
        # every entry of [x, x^2] @ X is divisible by x, and 1 is not
        with pytest.raises(NoSolutionError):
            solve_exact(Matrix(R, [[x, R.mul(x, x)]], 1, 2), Matrix(R, [[one]], 1, 1))


def test_snf_over_polynomials():
    R = poly_ring(QQ, ["x"])
    x = R.var_elem().payload
    one = R.one()
    A = Matrix(R, [[x, one], [R.zero(), x]], 2, 2)
    res = smith_normal_form(A)
    assert res.U @ A @ res.V == res.D
    # det = x^2, gcd of entries 1: invariants (1, x^2)
    assert res.diagonal[0] == one
    assert res.diagonal[1] == R.mul(x, x)


def test_snf_empty_shapes():
    for nr, nc in [(0, 0), (0, 3), (3, 0)]:
        A = Matrix.zero(ZZ, nr, nc)
        res = smith_normal_form(A)
        assert res.D.shape() == (nr, nc)
        assert tuple(res.invariants) == ()


def test_hermite_basis_is_echelon_and_spans():
    rng = random.Random(55)
    for _ in range(30):
        A = int_matrix(random_int_matrix(rng, max_dim=5, span=12))
        H = hermite_basis(A)
        # span equality both ways via exact solves
        if H.ncols:
            solve_exact(H, A)
            solve_exact(A, H)
        # pivots strictly descend the rows
        last = -1
        for j in range(H.ncols):
            i = next(i for i in range(H.nrows) if int(H.entry(i, j)) != 0)
            assert i > last
            last = i


def _sparse_random_matrix(R, rng, m, n):
    """A random m x n matrix with some of its rows and columns zeroed."""
    zero_rows = {i for i in range(m) if rng.random() < 0.25}
    zero_cols = {j for j in range(n) if rng.random() < 0.25}
    return Matrix.build(
        R,
        m,
        n,
        lambda i, j: R.zero() if i in zero_rows or j in zero_cols else R.random_element(rng),
    )


@pytest.mark.parametrize(
    "R", [ZZ, poly_ring(QQ, ["x"]), poly_ring(GF(5), ["x"])], ids=["Z", "Q[x]", "F5[x]"]
)
def test_invariant_factors_are_the_smith_diagonal(R, monkeypatch):
    # the same passes with empty transforms: the same invariants, and the
    # same number of passes, even where a pass drops a zero row or column
    passes = []
    tick = budget.StepCounter.tick

    def counted(counter, n=1):
        if counter.label == "smith_normal_form":
            passes[-1] += n
        return tick(counter, n)

    monkeypatch.setattr(budget.StepCounter, "tick", counted)
    rng = random.Random(zlib.crc32(R.describe().encode()))
    shapes = [(0, k) for k in range(4)] + [(k, 0) for k in range(1, 4)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(150)]
    for m, n in shapes:
        A = _sparse_random_matrix(R, rng, m, n)
        passes.append(0)
        expected = smith_normal_form(A).invariants
        passes.append(0)
        assert invariant_factors(A) == expected
        assert passes[-1] == passes[-2]


def test_kernel_basis_entries_stay_small():
    # wide low-rank systems used to come back with hundreds of digits
    # per entry, stalling every downstream normal form
    rng = random.Random(56)
    for _ in range(25):
        nr = rng.randint(2, 6)
        nc = nr + rng.randint(2, 8)
        rows = [[rng.randint(-12, 12) for _ in range(nc)] for _ in range(nr)]
        A = int_matrix(rows)
        K = kernel_basis(A)
        assert (A @ K).is_zero()
        assert all(abs(int(e)) < 10**9 for r in K.to_lists() for e in r)


def _product(R, items):
    out = R.one()
    for x in items:
        out = R.mul(out, x)
    return out


def _poly(R, *coeffs):
    return tuple(R.F.from_int(c) for c in coeffs)


F5x, Qt = poly_ring(GF(5), ["x"]), poly_ring(QQ, ["t"])


@pytest.mark.parametrize(
    "R,mu",
    [pytest.param(ZZ, mu, id=f"Z-{mu}") for mu in (4, 6, 12, 30, 360, 3456)]
    + [
        pytest.param(F5x, _poly(F5x, 0, 0, 1), id="F5[x]-x^2"),
        pytest.param(F5x, _poly(F5x, 1, 3, 3, 1), id="F5[x]-(x+1)^3"),
        pytest.param(F5x, _poly(F5x, 0, -1, 0, 1), id="F5[x]-x^3-x"),
        pytest.param(Qt, _poly(Qt, -1, 0, 1), id="Q[t]-t^2-1"),
        pytest.param(Qt, _poly(Qt, 1, 0, 2, 0, 1), id="Q[t]-(t^2+1)^2"),
    ],
)
def test_kernel_lattice_is_one_stacked_hermite_form(R, mu):
    # the lattice L = {v : A v in mu*D^m} is the first n rows K of a
    # basis of ker[A | mu*I]: they keep rank n, lie in L, and
    # D^n / L embeds in (D/mu)^m with cokernel D^m / (im A + mu*D^m), so
    # the invariant factors of K and of [A | mu*I] multiply to mu^m
    # exactly when K spans all of L
    rng = random.Random(zlib.crc32(f"{R.describe()} {mu}".encode()))
    for _ in range(100):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        A = Matrix.build(R, m, n, lambda i, j: R.random_element(rng))
        wide = Matrix.from_blocks(R, m, n + m, [(0, 0, A), (0, n, Matrix.scalar(R, mu, m))])
        basis = kernel_basis(wide)
        K = Matrix(R, basis.rows[:n], n, basis.ncols)
        assert basis.ncols == n and len(invariant_factors(K)) == n
        assert all(not R.euclid_divmod(x, mu)[1] for row in (A @ K).rows for x in row)
        index = _product(R, invariant_factors(K) + invariant_factors(wide))
        assert index == _product(R, [mu] * m)
