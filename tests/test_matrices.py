"""Matrix container algebra: block layout, empty shapes, rendering."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickgen.errors import RingMismatchError
from thickgen.matrices import Matrix
from thickgen.rings import GF, QQ, ZZ, UniQuotRing, Zmod, poly_ring

ints = st.integers(min_value=-9, max_value=9)


def mat_strategy(ring):
    side = st.integers(min_value=0, max_value=4)
    dims = st.tuples(side, side)

    def build(args):
        (nr, nc), seed = args
        vals = [[((seed + 7 * i + 13 * j) % 19) - 9 for j in range(nc)] for i in range(nr)]
        return Matrix(ring, [[ring.from_int(v) for v in row] for row in vals], nr, nc)

    return st.tuples(dims, st.integers(min_value=0, max_value=10 ** 6)).map(build)


@given(mat_strategy(ZZ), mat_strategy(ZZ))
@settings(max_examples=60, deadline=None)
def test_matmul_shapes_and_transpose(A, B):
    if A.ncols != B.nrows:
        return
    C = A @ B
    assert (C.nrows, C.ncols) == (A.nrows, B.ncols)
    assert C.transpose() == B.transpose() @ A.transpose()


@given(mat_strategy(ZZ))
@settings(max_examples=40, deadline=None)
def test_identity_is_neutral(A):
    assert Matrix.identity(ZZ, A.nrows) @ A == A
    assert A @ Matrix.identity(ZZ, A.ncols) == A


@given(mat_strategy(Zmod(12)), mat_strategy(Zmod(12)))
@settings(max_examples=40, deadline=None)
def test_addition_is_componentwise(A, B):
    if (A.nrows, A.ncols) != (B.nrows, B.ncols):
        return
    S = A + B
    for i in range(A.nrows):
        for j in range(A.ncols):
            assert S.entry(i, j) == Zmod(12).add(A.entry(i, j), B.entry(i, j))
    assert S - B == A


def test_block_assembles_with_zero_fills():
    A = Matrix(ZZ, [[1, 2], [3, 4]])
    B = Matrix(ZZ, [[5], [6]])
    M = Matrix.from_blocks(ZZ, 3, 3, [(0, 0, A), (0, 2, B), (2, 2, Matrix.identity(ZZ, 1))])
    assert M.to_lists() == [[1, 2, 5], [3, 4, 6], [0, 0, 1]]


def test_from_blocks_places_zero_size_blocks():
    # the differentials at the rank-0 ends of a complex are 0 x r and r x 0
    A = Matrix(ZZ, [[2]])
    blocks = [(0, 0, Matrix.zero(ZZ, 0, 3)), (0, 3, A), (1, 4, Matrix.zero(ZZ, 2, 0))]
    assert Matrix.from_blocks(ZZ, 1, 4, blocks[:2]).to_lists() == [[0, 0, 0, 2]]
    assert Matrix.from_blocks(ZZ, 3, 4, blocks).to_lists() == [[0, 0, 0, 2]] + [[0] * 4] * 2
    assert Matrix.from_blocks(ZZ, 0, 0, [(0, 0, Matrix.zero(ZZ, 0, 0))]).shape() == (0, 0)
    assert Matrix.from_blocks(ZZ, 2, 0, []) == Matrix.zero(ZZ, 2, 0)


@pytest.mark.parametrize("at", [(0, 2), (2, 0), (-1, 0), (0, -1)])
def test_from_blocks_rejects_a_block_that_does_not_fit(at):
    with pytest.raises(ValueError):
        Matrix.from_blocks(ZZ, 2, 3, [(*at, Matrix(ZZ, [[1, 2]]))])


def test_from_blocks_rejects_a_block_over_another_ring():
    with pytest.raises(RingMismatchError):
        Matrix.from_blocks(ZZ, 1, 1, [(0, 0, Matrix(Zmod(12), [[1]]))])


def test_render_and_hash_stability():
    A = Matrix(ZZ, [[1, -2], [0, 3]])
    assert A.render() == "[[1, -2], [0, 3]]"
    assert hash(A) == hash(Matrix(ZZ, [[1, -2], [0, 3]]))


RENDER_RINGS = {
    "Z": ZZ,
    "Z/12": Zmod(12),
    "Q": QQ,
    "F7": GF(7),
    "Q[x]": poly_ring(QQ, ["x"]),
    "F5[x]": poly_ring(GF(5), ["x"]),
    "F5[t]/(t^2+1)": UniQuotRing(GF(5), "t", tuple(GF(5).from_int(c) for c in (1, 0, 1))),
}


@pytest.mark.parametrize("name", sorted(RENDER_RINGS))
def test_render_matches_the_per_entry_join(name):
    # render writes the zero string once per matrix; every entry,
    # zero or not, must still read as ring.render reads it alone
    R = RENDER_RINGS[name]
    rng = random.Random(name)

    def per_entry(M):
        return "[" + ", ".join("[" + ", ".join(map(R.render, r)) + "]" for r in M.rows) + "]"

    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (4, 4)]
    for nr, nc in shapes:
        zero = Matrix.zero(R, nr, nc)
        assert zero.render() == per_entry(zero)
        for _ in range(10):
            M = Matrix.build(
                R, nr, nc, lambda i, j: R.random_element(rng) if rng.random() < 0.5 else R.zero()
            )
            assert M.render() == per_entry(M)
