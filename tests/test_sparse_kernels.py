"""Matrix products and the Hermite kernel on sparse inputs, the shape
of Koszul differentials: mostly zeros, a few nonzero entries per column.

Products are compared with a dense triple loop that runs the ring's
own add and mul over every entry, zeros included.  The Hermite kernel
is compared with a reference copy of it whose row update walks every
index from the pivot row on and tests each entry of the source column.
"""

import copy
import random

import pytest

from thickgen import budget
from thickgen.budget import StepCounter
from thickgen.complexes import koszul
from thickgen.ideals import Ideal
from thickgen.matrices import Matrix
from thickgen.rings import GF, QQ, ZZ, Zmod, poly_ring
from thickgen.snf import _hermite_columns, kernel_basis, solve_exact

RINGS = {
    "Z": ZZ,
    "Z/12": Zmod(12),
    "Q": QQ,
    "F5[x]": poly_ring(GF(5), ["x"]),
}


def sparse(R, rng, nrows, ncols, density=0.3):
    return Matrix(
        R,
        [
            [R.random_element(rng) if rng.random() < density else R.zero() for _ in range(ncols)]
            for _ in range(nrows)
        ],
        nrows,
        ncols,
    )


def dense_product(A, B):
    R = A.ring
    out = []
    for i in range(A.nrows):
        row = []
        for j in range(B.ncols):
            acc = R.zero()
            for k in range(A.ncols):
                acc = R.add(acc, R.mul(A.entry(i, k), B.entry(k, j)))
            row.append(acc)
        out.append(row)
    return out


def assert_zeros_are_canonical(M):
    zero_type = type(M.ring.zero())
    for row in M.rows:
        for x in row:
            if not x:
                assert type(x) is zero_type, (M.ring.describe(), x)


@pytest.mark.parametrize("name", RINGS)
@pytest.mark.parametrize("seed", range(6))
def test_sparse_products_match_the_dense_loop(name, seed):
    R = RINGS[name]
    rng = random.Random(seed)
    m, k, n = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
    A, B = sparse(R, rng, m, k), sparse(R, rng, k, n)
    C = A @ B
    assert C.shape() == (m, n)
    assert [list(r) for r in C.rows] == dense_product(A, B)
    assert_zeros_are_canonical(C)


def test_zero_divisor_products_over_z12_match_the_dense_loop():
    # 3 * 4 = 0 in Z/12: a product of two nonzero entries is a zero entry
    R = RINGS["Z/12"]
    A = Matrix(R, [[3, 0, 4], [0, 6, 0]], 2, 3)
    B = Matrix(R, [[4, 0], [2, 6], [3, 0]], 3, 2)
    C = A @ B
    assert [list(r) for r in C.rows] == dense_product(A, B) == [[0, 0], [0, 0]]
    assert C.is_zero()
    assert_zeros_are_canonical(C)


@pytest.mark.parametrize("name", ["Z", "F5[x]"])
@pytest.mark.parametrize("seed", range(6))
def test_kernel_and_solve_on_sparse_inputs(name, seed):
    R = RINGS[name]
    rng = random.Random(200 + seed)
    m, n = rng.randint(1, 5), rng.randint(1, 6)
    A = sparse(R, rng, m, n)
    K = kernel_basis(A)
    assert K.nrows == n
    assert (A @ K).is_zero()
    assert_zeros_are_canonical(K)
    X = sparse(R, rng, n, rng.randint(1, 3))
    B = A @ X
    Y = solve_exact(A, B)
    assert A @ Y == B
    assert_zeros_are_canonical(Y)


def _dense_axpy(R, dst, src, q, start):
    add, mul, nq = R.add, R.mul, R.neg(q)
    for i in range(start, len(dst)):
        s = src[i]
        if s:
            dst[i] = add(dst[i], mul(nq, s))


def reference_hermite_columns(R, nrows, cols):
    cols = [c for c in cols if any(c)]
    counter = StepCounter("hermite")
    fixed = []
    pivot_rows = []
    for row in range(nrows):
        if not cols:
            break
        live = [c for c in cols if c[row]]
        if not live:
            continue
        while len(live) > 1:
            counter.tick()
            live.sort(key=lambda c: R.euclid_norm(c[row]))
            p = live[0]
            rest = []
            for c in live[1:]:
                q, r = R.euclid_divmod(c[row], p[row])
                if q:
                    _dense_axpy(R, c, p, q, row)
                if c[row]:
                    rest.append(c)
            live = [p] + rest
        pivot = live[0]
        _, u = R.canonical_associate(pivot[row])
        if not R.is_one(u):
            for i in range(len(pivot)):
                pivot[i] = R.mul(u, pivot[i])
        cols.remove(pivot)
        fixed.append(pivot)
        pivot_rows.append(row)
    for k in range(len(fixed)):
        for j in range(k):
            q, _ = R.euclid_divmod(fixed[j][pivot_rows[k]], fixed[k][pivot_rows[k]])
            if q:
                _dense_axpy(R, fixed[j], fixed[k], q, pivot_rows[k])
    return fixed, pivot_rows


def _kernel_inputs(A):
    """(nrows, columns) lists that the Smith and Hermite callers hand the
    kernel: A's columns, the columns of [[A] ; [I]], and A's rows."""
    R, m, n = A.ring, A.nrows, A.ncols
    cols = [[A.entry(i, j) for i in range(m)] for j in range(n)]
    stacked = [c + [R.one() if i == j else R.zero() for i in range(n)] for j, c in enumerate(cols)]
    rows = [list(r) for r in A.rows]
    return [(m, cols), (m + n, stacked), (n, rows)]


@pytest.fixture
def hermite_ticks(monkeypatch):
    """A one-item list that counts the hermite ticks from here on."""
    ticks = [0]
    tick = budget.StepCounter.tick

    def counted(counter, n=1):
        if counter.label == "hermite":
            ticks[0] += n
        return tick(counter, n)

    monkeypatch.setattr(budget.StepCounter, "tick", counted)
    return ticks


def _assert_kernel_matches_reference(A, ticks):
    """Same columns, same pivot rows and the same hermite tick count."""
    for nrows, cols in _kernel_inputs(A):
        runs = []
        for kernel in (reference_hermite_columns, _hermite_columns):
            ticks[0] = 0
            runs.append((kernel(A.ring, nrows, copy.deepcopy(cols)), ticks[0]))
        assert runs[1] == runs[0]


@pytest.mark.parametrize("name", ["Z", "Q", "F5[x]"])
@pytest.mark.parametrize("seed", range(8))
def test_hermite_kernel_matches_the_dense_reference(name, seed, hermite_ticks):
    R = RINGS[name]
    rng = random.Random(300 + seed)
    for _ in range(6):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        A = sparse(R, rng, m, n, density=rng.choice([0.2, 0.4]))
        _assert_kernel_matches_reference(A, hermite_ticks)


def test_hermite_kernel_matches_the_dense_reference_on_a_koszul_complex(hermite_ticks):
    K = koszul(Ideal(ZZ, [6, 8, 4, 8, 16, 12, 18]))
    for n in range(K.lo(), K.hi()):
        _assert_kernel_matches_reference(K.diff(n), hermite_ticks)
