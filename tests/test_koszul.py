"""Koszul complexes written from their formula.

`koszul` is compared with the tensor product of the complexes
[R --f_i--> R], the construction it replaced, kept here as the
reference.  The homotopies h_i (exterior multiplication by e_i) check
the basis order and the signs of the differential a second way:
d h_i + h_i d is multiplication by f_i in every degree.
"""

import random
from itertools import combinations

import pytest

from thickgen.complexes import FreeComplex, koszul, two_term, zero_complex
from thickgen.dsl import render_complex
from thickgen.ideals import Ideal
from thickgen.matrices import Matrix
from thickgen.rings import GF, QQ, ZZ, RingElem, Zmod, poly_ring

RINGS = {
    "Z": ZZ,
    "Z/12": Zmod(12),
    "Z/360": Zmod(360),
    "F5": GF(5),
    "Q": QQ,
    "Q[x]": poly_ring(QQ, ["x"]),
    "F3[x,y]": poly_ring(GF(3), ["x", "y"]),
    "Q[x,y,z]": poly_ring(QQ, ["x", "y", "z"]),
}


def tensor(X, Y):
    """Tensor product complex with d(x (x) y) = dx (x) y + (-1)^p x (x) dy,
    written entry by entry.  The basis of degree n is x_a (x) y_b with x_a
    in X^p and y_b in Y^(n-p), by ascending p, then a, then b."""
    ring = X.ring
    if X.is_zero_complex() or Y.is_zero_complex():
        return zero_complex(ring)

    def basis(n):
        return [
            (p, a, b) for p in X.degrees() for a in range(X.rank(p)) for b in range(Y.rank(n - p))
        ]

    def entry(n, row, col):
        (p2, a2, b2), (p, a, b) = row, col
        if p2 == p + 1 and b2 == b:
            return X.diff(p).entry(a2, a)
        if p2 == p and a2 == a:
            e = Y.diff(n - p).entry(b2, b)
            return ring.neg(e) if p % 2 else e
        return ring.zero()

    lo, hi = X.lo() + Y.lo(), X.hi() + Y.hi()
    ranks = {n: len(basis(n)) for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo, hi):
        cols, rows = basis(n), basis(n + 1)
        out = [[entry(n, r, c) for c in cols] for r in rows]
        diffs[n] = Matrix(ring, out, len(rows), len(cols))
    return FreeComplex(ring, ranks, diffs)


def tensor_koszul(ideal):
    acc = None
    for g in ideal.gens:
        t = two_term(ideal.ring, g)
        acc = t if acc is None else tensor(acc, t)
    return acc


def random_ideal(R, rng, k):
    gens = []
    while len(gens) < k:
        p = R.random_element(rng)
        if not R.is_zero(p):
            gens.append(RingElem(R, p))
    return Ideal(R, gens)


@pytest.mark.parametrize("name", RINGS)
@pytest.mark.parametrize("k", range(8))
def test_koszul_matches_the_tensor_product(name, k):
    R = RINGS[name]
    I = random_ideal(R, random.Random(k), k)
    K = koszul(I)
    ref = tensor_koszul(I)
    assert K == ref
    assert render_complex(K) == render_complex(ref)
    assert K.degrees() == list(range(-max(k, 1), 1))


def subsets(k, j):
    """The j-subsets of range(k) in colex order."""
    return sorted(combinations(range(k), j), key=lambda S: S[::-1]) if j >= 0 else []


def homotopy(R, k, i, n):
    """h_i from degree n to n - 1: e_S -> (-1)^#{s in S : s < i} e_(S + i),
    and e_S -> 0 when i is in S."""
    src, dst = subsets(k, -n), subsets(k, 1 - n)
    col = {S: c for c, S in enumerate(src)}
    rows = [[R.zero()] * len(src) for _ in dst]
    for r, T in enumerate(dst):
        if i in T:
            below = T.index(i)
            rows[r][col[T[:below] + T[below + 1 :]]] = R.from_int(-1 if below % 2 else 1)
    return Matrix(R, rows, len(dst), len(src))


@pytest.mark.parametrize("name", ["Z", "Z/360", "Q[x,y]"])
@pytest.mark.parametrize("k", range(1, 6))
def test_koszul_homotopies_multiply_by_each_generator(name, k):
    R = poly_ring(QQ, ["x", "y"]) if name == "Q[x,y]" else RINGS[name]
    I = random_ideal(R, random.Random(10 + k), k)
    K = koszul(I)
    for i, f in enumerate(g.payload for g in I.gens):
        for n in range(-k, 1):
            dh = K.diff(n - 1) @ homotopy(R, k, i, n)
            hd = homotopy(R, k, i, n + 1) @ K.diff(n)
            assert dh + hd == Matrix.scalar(R, f, K.rank(n)), (i, n)
