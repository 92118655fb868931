"""Packed monomials (polys.Monomials) against the exponent-tuple
definitions they replace: one int per exponent vector must order,
multiply, divide and take lcms exactly as the tuples do."""

import itertools

import pytest

from thickgen.errors import ExponentLimitError
from thickgen.polys import EXP_LIMIT, Monomials, m_mul, m_term_mul
from thickgen.rings import QQ


def key_lex(exp):
    return exp


def key_grevlex(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


TUPLE_KEYS = {"lex": key_lex, "grevlex": key_grevlex}
NEAR_LIMIT = (0, 1 << 62, EXP_LIMIT)
LAYOUTS = [(n, order) for n in (2, 3, 4) for order in ("grevlex", "lex")]
IDS = [f"{n}vars-{order}" for n, order in LAYOUTS]


def small_vectors(nvars):
    """Every exponent vector of total degree <= 5."""
    return [e for e in itertools.product(range(6), repeat=nvars) if sum(e) <= 5]


def near_limit_vectors(nvars):
    return list(itertools.product(NEAR_LIMIT, repeat=nvars))


def check_pair(M, a, b):
    pa, pb = M.pack(a), M.pack(b)
    assert M.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    assert M.lcm(pa, pb) == M.pack(tuple(max(x, y) for x, y in zip(a, b)))
    if M.divides(pa, pb):
        assert M.div(pb, pa) == M.pack(tuple(y - x for x, y in zip(a, b)))
    prod = tuple(x + y for x, y in zip(a, b))
    for mul in (
        lambda: m_mul(QQ, ((pa, 1),), ((pb, 1),), M),
        lambda: m_term_mul(QQ, M, pa, 1, ((pb, 1),)),
    ):
        if max(prod) <= EXP_LIMIT:
            assert [m for m, _ in mul()] == [M.pack(prod)]
        else:
            with pytest.raises(ExponentLimitError):
                mul()


@pytest.mark.parametrize("nvars,order", LAYOUTS, ids=IDS)
def test_pack_round_trips_and_reads_the_degree(nvars, order):
    M = Monomials(nvars, order)
    assert M.pack((0,) * nvars) == 0
    for e in small_vectors(nvars) + near_limit_vectors(nvars):
        assert M.unpack(M.pack(e)) == e
        assert M.deg(M.pack(e)) == sum(e)
    for bad in (-1, EXP_LIMIT + 1):
        with pytest.raises(ExponentLimitError):
            M.pack((bad,) + (0,) * (nvars - 1))


@pytest.mark.parametrize("nvars,order", LAYOUTS, ids=IDS)
def test_int_key_orders_monomials_as_the_tuple_key(nvars, order):
    M = Monomials(nvars, order)
    for vecs in (small_vectors(nvars), near_limit_vectors(nvars)):
        want = sorted(vecs, key=TUPLE_KEYS[order])
        assert sorted(vecs, key=lambda e: M.key(M.pack(e))) == want
        assert [M.unpack(M.key(M.key(M.pack(e)))) for e in want] == want


@pytest.mark.parametrize("nvars,order", LAYOUTS, ids=IDS)
def test_arithmetic_agrees_with_the_tuple_formulas(nvars, order):
    M = Monomials(nvars, order)
    small = small_vectors(nvars)
    for a, b in itertools.product(small, repeat=2):
        check_pair(M, a, b)
    near = near_limit_vectors(nvars)
    for a, b in itertools.product(near, repeat=2):
        check_pair(M, a, b)
    for a, b in itertools.product(near, small[:: max(1, len(small) // 8)]):
        check_pair(M, a, b)
        check_pair(M, b, a)
