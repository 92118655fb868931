"""Matrix products and the Hermite kernel on sparse inputs, the shape
of Koszul differentials: mostly zeros, a few nonzero entries per column.

Products are compared with a dense triple loop that runs the ring's
own add and mul over every entry, zeros included.
"""

import random

import pytest

from thickgen.matrices import Matrix
from thickgen.rings import GF, QQ, ZZ, Zmod, poly_ring
from thickgen.snf import kernel_basis, solve_exact

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
