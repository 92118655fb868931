"""Factorization helpers checked against trial-division oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import factor_int, is_prime_int
from thickgen.errors import FactorizationIncompleteError
from thickgen.factor import (
    factor_integer,
    factor_unipoly,
    is_prime,
    uni_squarefree,
)
from thickgen.polys import uni_scale, uni_trim
from thickgen.rings import GF, QQ, poly_ring


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=200, deadline=None)
def test_is_prime_matches_oracle(n):
    assert is_prime(n) == is_prime_int(n)


@given(st.integers(min_value=2, max_value=100000))
@settings(max_examples=150, deadline=None)
def test_factor_integer_matches_oracle(n):
    assert factor_integer(n) == factor_int(n)


def test_factor_integer_rejects_huge_primes():
    with pytest.raises(FactorizationIncompleteError):
        factor_integer((2 ** 61 - 1) ** 2, bound=10 ** 6)


def _mul_out(F, parts):
    R = poly_ring(F, ["x"])
    acc = R.one()
    for g, m in parts:
        acc = R.mul(acc, R.pow_(g, m))
    return acc


@pytest.mark.parametrize(
    "F,coeffs",
    [
        (QQ, (1, 2, 1)),            # (x+1)^2
        (QQ, (0, 0, 1)),            # x^2
        (QQ, (-1, 0, 0, 1)),        # x^3 - 1
        (GF(2), (0, 1, 0, 0, 1)),   # t^4 + t over F2
        (GF(3), (0, 0, 0, 1)),      # t^3 over F3, inseparable-ish input
        (GF(5), (1, 1, 1, 1)),
    ],
)
def test_squarefree_parts_multiply_back(F, coeffs):
    f = uni_trim(tuple(F.from_int(c) for c in coeffs), F)
    parts = uni_squarefree(F, f)
    prod = _mul_out(F, parts)
    # equal up to the leading unit
    lead = F.exact_div(f[-1], prod[-1])
    assert uni_scale(F, lead, prod) == f
    # parts are squarefree and pairwise coprime by construction: multiplicities distinct factors
    gs = [g for g, _ in parts]
    assert len(gs) == len(set(gs))


def test_char_p_pth_power_is_recognized():
    F = GF(2)
    # (t^2 + t)^2 = t^4 + t^2 has only p-th power content
    f = (0, 0, 1, 0, 1)
    parts = uni_squarefree(F, f)
    assert parts == [((0, 1, 1), 2)]  # the squarefree part t^2 + t, squared


@pytest.mark.parametrize(
    "F,coeffs,expected_count,complete",
    [
        (QQ, (1, 2, 1), 1, True),          # (x+1)^2
        (QQ, (-2, 1), 1, True),            # x - 2
        (QQ, (-1, 0, 1), 2, True),         # (x-1)(x+1)
        (QQ, (2, 0, 1), 1, True),          # x^2+2 irreducible, deg <= 3 certified
        (GF(2), (0, 1, 0, 0, 1), 3, True), # t(t+1)(t^2+t+1)
        (GF(3), (2, 0, 1), 1, True),       # t^2+2 = (t+1)(t+2)? check below
    ],
)
def test_factor_unipoly_counts(F, coeffs, expected_count, complete):
    f = uni_trim(tuple(F.from_int(c) for c in coeffs), F)
    parts, full = factor_unipoly(F, f)
    assert full == complete
    if (F, coeffs) == (GF(3), (2, 0, 1)):
        # t^2 + 2 = t^2 - 1 = (t-1)(t+1) over F3
        assert len(parts) == 2
    else:
        assert len(parts) == expected_count
    assert _mul_out(F, parts)[-1] == F.one() or F is QQ


def test_factor_unipoly_flags_hard_quartics():
    # x^4 + x + 1 has no rational roots and resists the deg <= 3 certificate
    f = tuple(QQ.from_int(c) for c in (1, 1, 0, 0, 1))
    parts, full = factor_unipoly(QQ, f)
    assert not full


def test_fp_factorization_roots_agree_with_eval():
    F = GF(5)
    f = tuple(F.from_int(c) for c in (3, 1, 0, 1))  # t^3 + t + 3
    parts, full = factor_unipoly(F, f)
    assert full
    roots = {a for a in range(5) if _eval(F, f, a) == 0}
    linear_roots = {
        F.neg(g[0]) for g, _ in parts if len(g) == 2
    }
    assert roots == linear_roots


def _eval(F, f, a):
    acc = F.zero()
    for c in reversed(f):
        acc = F.add(F.mul(acc, a), c)
    return acc
