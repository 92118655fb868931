"""Ideal normalization, membership, products, powers, radicals."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickgen.ideals import Ideal
from thickgen.rings import GF, QQ, ZZ, UniQuotRing, Zmod, poly_ring

small = st.integers(min_value=-40, max_value=40)


@given(st.lists(small, min_size=1, max_size=4), small)
@settings(max_examples=150, deadline=None)
def test_integer_membership_is_gcd_divisibility(gens, probe):
    I = Ideal(ZZ, gens)
    g = math.gcd(*[abs(x) for x in gens]) if any(gens) else 0
    if g == 0:
        assert I.member(probe) == (probe == 0)
    else:
        assert I.member(probe) == (probe % g == 0)


@given(st.lists(small, min_size=1, max_size=3), st.lists(small, min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_product_contains_pairwise_products(a, b):
    I, J = Ideal(ZZ, a), Ideal(ZZ, b)
    P = I.product(J)
    for x in a:
        for y in b:
            assert P.member(x * y)
    # and the product sits inside both factors
    assert I.contains(P) and J.contains(P)


@pytest.mark.parametrize("m", [4, 6, 8, 9, 12, 30])
@given(a=st.integers(min_value=0, max_value=29), k=st.integers(min_value=0, max_value=29))
@settings(max_examples=60, deadline=None)
def test_quotient_membership_matches_lifted_gcd(m, a, k):
    R = Zmod(m)
    I = Ideal(R, [a % m])
    g = math.gcd(a % m, m)
    assert I.member(k % m) == ((k % m) % g == 0)


def test_normalization_collapses_to_gcd():
    I = Ideal(ZZ, [12, 18, 30])
    assert [x.payload for x in I.normal_gens] == [6]
    assert I == Ideal(ZZ, [6])
    assert I != Ideal(ZZ, [3])


def test_zero_and_unit_ideals():
    Z0 = Ideal(ZZ, [0])
    assert Z0.is_zero_ideal() and not Z0.is_unit_ideal()
    U = Ideal(ZZ, [2, 3])
    assert U.is_unit_ideal() and not U.is_proper()
    P = Ideal(ZZ, [4])
    assert P.is_proper()


@pytest.mark.parametrize(
    "m,gen,stab,nil",
    [
        (8, 2, 3, 3),     # (2)^3 = (0) in Z/8
        (16, 4, 2, 2),    # (4)^2 = (0)
        (12, 2, 2, None), # (2)^2 = (4) = (2)^3 stabilizes nonzero
        (9, 3, 2, 2),
    ],
)
def test_power_stabilization_and_nilpotence(m, gen, stab, nil):
    I = Ideal(Zmod(m), [gen])
    assert I.powers_stabilize(8) == stab
    assert I.nilpotency_index() == nil


def _ladder_cases():
    Q1, Q2 = poly_ring(QQ, ["x"]), poly_ring(QQ, ["x", "y"])
    x, y = Q2.var_elem(0), Q2.var_elem(1)
    return [
        Ideal(Zmod(8), [2]),
        Ideal(Q1, [Q1.var_elem() * Q1.var_elem() - 1]),
        Ideal(Q2, [x + y, x * y]),
    ]


@pytest.mark.parametrize("I", _ladder_cases(), ids=["Z/8", "Q[x]", "Q[x,y]"])
def test_power_ladder_is_built_once(I):
    top = I.power(6)
    chain = [I]
    while len(chain) < 6:
        chain.append(chain[-1].product(I))
    assert top is I.power(6)
    for n in range(1, 7):
        assert I.power(n) == chain[n - 1]
        assert I.power(n) is I.power(n)


def test_power_zero_gives_unit_ideal():
    I = Ideal(ZZ, [5])
    assert I.power(0).is_unit_ideal()
    assert I.power(3) == Ideal(ZZ, [125])


@pytest.mark.parametrize(
    "g,f,expect",
    [
        (12, 6, True),    # 6^2 = 36 divisible by 12
        (12, 2, False),   # 2^k never divisible by 3
        (4, 2, True),
        (0, 0, True),
        (0, 3, False),
        (1, 7, True),
    ],
)
def test_euclidean_radical_membership(g, f, expect):
    assert Ideal(ZZ, [g]).radical_member(f) == expect


def test_radical_membership_in_quotient():
    R = Zmod(8)
    I = Ideal(R, [0])
    assert I.radical_member(2)       # 2^3 = 0 in Z/8
    assert not I.radical_member(3)   # 3 is a unit


def test_radical_membership_poly():
    R = poly_ring(QQ, ["x"])
    x = R.var_elem()
    I = Ideal(R, [x * x * (x - 1)])
    assert I.radical_member(x * (x - 1))
    assert not I.radical_member(x)
    assert not I.radical_member(x - 1)


def test_uniquot_ideal_normalization():
    # F2[t]/(t^2+t): ideal (t) contains t^2 = t
    R = UniQuotRing(GF(2), "t", (0, 1, 1))
    t = R.var_elem()
    I = Ideal(R, [t])
    assert I.member(t * t)
    assert not I.member(R.elem(1) + t)


def test_ideal_render_and_eq():
    R = poly_ring(QQ, ["x", "y"])
    x, y = R.var_elem(0), R.var_elem(1)
    I = Ideal(R, [y, x])
    assert I.render() == "(x, y)"
    assert I == Ideal(R, [x, y, x + y])


def test_contains_is_reflexive_and_orders():
    I, J = Ideal(ZZ, [4]), Ideal(ZZ, [2])
    assert J.contains(I)
    assert not I.contains(J)
    assert I.contains(I)
