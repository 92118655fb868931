"""Complex constructors, chain maps, cones, Koszul shapes."""

import random

import pytest

from thickgen.complexes import (
    ChainMap,
    FreeComplex,
    cone,
    cone_inclusion,
    cone_projection,
    direct_sum,
    is_quasi_iso,
    koszul,
    two_term,
    zero_complex,
)
from thickgen.errors import ComplexFormatError
from thickgen.ideals import Ideal
from thickgen.matrices import Matrix
from thickgen.rings import QQ, ZZ, Zmod, poly_ring

from random_complexes import random_chain_map, random_complex


def composite(g, f):
    """g after f, composed degree by degree."""
    assert f.dst == g.src
    return ChainMap(f.src, g.dst, {n: g.comp(n) @ f.comp(n) for n in f.src.degrees()})


def summand_projection(complexes, which):
    """Chain map proj: direct_sum(complexes) -> complexes[which]."""
    total = direct_sum(complexes)
    part = complexes[which]
    comps = {}
    for n in part.degrees():
        before = sum(c.rank(n) for c in complexes[:which])
        I = Matrix.identity(total.ring, part.rank(n))
        comps[n] = Matrix.from_blocks(total.ring, part.rank(n), total.rank(n), [(0, before, I)])
    return ChainMap(total, part, comps)


def injection(parts, which):
    """The summand inclusion: the projection's blocks transposed."""
    proj = summand_projection(parts, which)
    return ChainMap(proj.dst, proj.src, {n: M.transpose() for n, M in proj.comps.items()})


def test_two_term_shape():
    X = two_term(ZZ, 6)
    assert X.degrees() == [-1, 0]
    assert X.rank(-1) == X.rank(0) == 1
    assert X.diff(-1).to_lists() == [[6]]


def test_dd_zero_enforced():
    with pytest.raises(ComplexFormatError):
        FreeComplex(
            ZZ,
            {-1: 1, 0: 1, 1: 1},
            {-1: Matrix(ZZ, [[2]]), 0: Matrix(ZZ, [[3]])},
        )


def test_shape_mismatch_names_degree():
    with pytest.raises(ComplexFormatError) as err:
        FreeComplex(ZZ, {0: 2, 1: 1}, {0: Matrix(ZZ, [[1]])})
    assert "0" in str(err.value)


def test_shift_signs_and_involution():
    X = koszul(Ideal(ZZ, [2, 3]))
    Y = X.shift(1)
    assert Y.rank(-1) == X.rank(0)
    for n in Y.degrees()[:-1]:
        assert Y.diff(n) == X.diff(n + 1).scale(ZZ.from_int(-1))
    assert X.shift(3).shift(-3) == X
    assert X.shift(-2).diff(0) == X.diff(-2)  # even shift keeps signs


def test_cone_of_identity_is_exact():
    X = koszul(Ideal(ZZ, [4]))
    assert is_quasi_iso(ChainMap.identity(X))


def test_cone_triangle_maps_commute():
    X = two_term(ZZ, 2)
    Y = two_term(ZZ, 6)
    f = ChainMap(X, Y, {-1: Matrix(ZZ, [[1]]), 0: Matrix(ZZ, [[3]])})
    C = cone(f)
    inc = cone_inclusion(f)
    proj = cone_projection(f)
    assert inc.src == Y and inc.dst == C
    assert proj.src == C and proj.dst == X.shift(1)
    assert composite(proj, inc).is_zero()


def test_chain_map_rejects_non_commuting():
    X = two_term(ZZ, 2)
    Y = two_term(ZZ, 3)
    with pytest.raises(Exception):
        ChainMap(X, Y, {-1: Matrix(ZZ, [[1]]), 0: Matrix(ZZ, [[1]])})


def test_koszul_ranks_are_binomial():
    I = Ideal(ZZ, [2, 3, 5])
    K = koszul(I)
    ranks = {n: K.rank(n) for n in K.degrees()}
    assert ranks == {-3: 1, -2: 3, -1: 3, 0: 1}


def test_direct_sum_and_summand_maps():
    X = two_term(ZZ, 2)
    Y = two_term(ZZ, 3).shift(1)
    S = direct_sum([X, Y])
    inj = injection([X, Y], 0)
    proj = summand_projection([X, Y], 0)
    assert composite(proj, inj) == ChainMap.identity(X)
    assert S.rank(-1) == X.rank(-1) + Y.rank(-1)


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)])
def test_summand_maps_of_three_summands(ring):
    parts = [two_term(ring, 2), FreeComplex(ring, {-1: 2}, {}), two_term(ring, 3).shift(1)]
    inj = injection(parts, 1)
    assert composite(summand_projection(parts, 1), inj) == ChainMap.identity(parts[1])
    for k in (0, 2):
        assert composite(summand_projection(parts, k), inj).is_zero()


def test_cone_projection_after_inclusion_is_zero_over_qx():
    f = random_chain_map(poly_ring(QQ, ["x"]), random.Random(3))
    assert composite(cone_projection(f), cone_inclusion(f)).is_zero()


def test_zero_complex_is_neutral_for_sum():
    X = two_term(ZZ, 7)
    assert direct_sum([X, zero_complex(ZZ)]) == X


LAYOUT_RINGS = [ZZ, Zmod(12), poly_ring(QQ, ["x"])]


def span(*complexes):
    """Every degree of the complexes and of a cone between them, and a
    rank-0 degree past each end."""
    degs = [n for X in complexes for n in X.degrees()]
    return range(min(degs) - 2, max(degs) + 2)


@pytest.mark.parametrize("ring", LAYOUT_RINGS)
def test_cone_differentials_match_the_block_formula(ring):
    """d = [[-d_src, 0], [f, d_dst]], written entry by entry."""
    rng = random.Random(21)
    for _ in range(15):
        f = random_chain_map(ring, rng)
        X, Y, C = f.src, f.dst, cone(f)
        for n in span(X, Y):
            rows = [("X", i) for i in range(X.rank(n + 2))]
            rows += [("Y", i) for i in range(Y.rank(n + 1))]
            cols = [("X", j) for j in range(X.rank(n + 1))]
            cols += [("Y", j) for j in range(Y.rank(n))]
            want = [[ring.zero()] * len(cols) for _ in rows]
            for r, (a, i) in enumerate(rows):
                for c, (b, j) in enumerate(cols):
                    if a == b == "X":
                        want[r][c] = ring.neg(X.diff(n + 1).entry(i, j))
                    elif a == "Y" and b == "X":
                        want[r][c] = f.comp(n + 1).entry(i, j)
                    elif a == b == "Y":
                        want[r][c] = Y.diff(n).entry(i, j)
            assert C.rank(n) == len(cols)
            assert C.diff(n).to_lists() == want


@pytest.mark.parametrize("ring", LAYOUT_RINGS)
def test_direct_sum_differentials_match_the_block_formula(ring):
    """d = diag(d_1, ..., d_m), written entry by entry."""
    rng = random.Random(22)
    for _ in range(15):
        f = random_chain_map(ring, rng)
        parts = [f.src, f.dst, f.src]
        S = direct_sum(parts)
        for n in span(*parts):
            rows = [(k, i) for k, X in enumerate(parts) for i in range(X.rank(n + 1))]
            cols = [(k, j) for k, X in enumerate(parts) for j in range(X.rank(n))]
            want = [
                [parts[k].diff(n).entry(i, j) if k == l else ring.zero() for l, j in cols]
                for k, i in rows
            ]
            assert S.rank(n) == len(cols)
            assert S.diff(n).to_lists() == want


@pytest.mark.parametrize("ring", LAYOUT_RINGS)
def test_random_complexes_construct(ring):
    rng = random.Random(5)
    for _ in range(20):
        X, blocks, transforms = random_complex(ring, rng)
        assert not X.is_zero_complex()
        assert all(X.rank(n) <= 4 for n in X.degrees())


@pytest.mark.parametrize("ring", [ZZ, Zmod(12)])
def test_random_chain_maps_commute_by_construction(ring):
    rng = random.Random(9)
    for _ in range(20):
        f = random_chain_map(ring, rng)
        # ctor re-checks commutation; touch the components
        assert f.src.ring == ring and f.dst.ring == ring


def test_equality_ignores_materialized_zero_blocks():
    A = FreeComplex(ZZ, {0: 1, 1: 1}, {0: Matrix.zero(ZZ, 1, 1)})
    B = FreeComplex(ZZ, {0: 1, 1: 1}, {})
    assert A == B and hash(A) == hash(B)
    # a chain map given an explicit zero component is the map without it
    f = ChainMap(A, B, {0: Matrix.zero(ZZ, 1, 1)})
    g = ChainMap(A, B, {})
    assert f == g and hash(f) == hash(g)
    assert f.is_zero() and g.is_zero()
    assert ChainMap(A, B, {0: Matrix.identity(ZZ, 1), 1: Matrix.identity(ZZ, 1)}) != g
