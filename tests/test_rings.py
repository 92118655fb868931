"""Ring axiom and arithmetic tests across all supported ring kinds."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickgen.errors import NotDivisibleError
from thickgen.rings import GF, QQ, ZZ, UniQuotRing, Zmod, poly_ring

RINGS = {
    "Z": ZZ,
    "Q": QQ,
    "F5": GF(5),
    "Zmod12": Zmod(12),
    "Qx": poly_ring(QQ, ["x"]),
    "F2quot": UniQuotRing(GF(2), "t", (1, 1, 1)),
    "Qxy": poly_ring(QQ, ["x", "y"]),
}


def _gens(ring):
    if ring.kind in ("poly1", "polyquot"):
        return [ring.var_elem().payload]
    if ring.kind == "polym":
        return [ring.var_elem(i).payload for i in range(ring.nvars)]
    return []


def elem_strategy(ring):
    """Small elements built from integer seeds through ring arithmetic."""
    ints = st.integers(min_value=-20, max_value=20)
    gens = _gens(ring)

    def build(seeds):
        acc = ring.zero()
        for i, s in enumerate(seeds):
            term = ring.from_int(s)
            for g in gens[: i % (len(gens) + 1)]:
                term = ring.mul(term, g)
            acc = ring.add(acc, term)
        return acc

    return st.lists(ints, min_size=1, max_size=4).map(build)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_from_int_respects_addition(name):
    ring = RINGS[name]
    for a in range(-6, 7):
        for b in range(-6, 7):
            lhs = ring.from_int(a + b)
            rhs = ring.add(ring.from_int(a), ring.from_int(b))
            assert lhs == rhs


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms(name, data):
    ring = RINGS[name]
    s = elem_strategy(ring)
    a, b, c = data.draw(s), data.draw(s), data.draw(s)
    assert ring.add(a, b) == ring.add(b, a)
    assert ring.mul(a, b) == ring.mul(b, a)
    assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.add(a, ring.neg(a)) == ring.zero()
    assert ring.mul(a, ring.one()) == a
    assert ring.sub(a, b) == ring.add(a, ring.neg(b))


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_div_inverts_mul(name, data):
    ring = RINGS[name]
    s = elem_strategy(ring)
    a, b = data.draw(s), data.draw(s)
    prod = ring.mul(a, b)
    if ring.is_zero(b):
        return
    q = ring.exact_div(prod, b)
    assert ring.mul(q, b) == prod


@pytest.mark.parametrize("name", sorted(RINGS))
def test_division_by_zero_has_one_message(name):
    ring = RINGS[name]
    with pytest.raises(NotDivisibleError, match="^division by zero$"):
        ring.exact_div(ring.one(), ring.zero())


# ------------------------------------------- brute-force quotient arithmetic


def _int_table(m):
    """Elements of Z/m as ints, and their product mod m."""
    return list(range(m)), lambda a, b: a * b % m


def _poly_table(p, mu):
    """Elements of F_p[t]/(mu) as trimmed coefficient tuples (constant
    term first), and their schoolbook product reduced mod mu and mod p;
    mu is monic, given as a coefficient tuple."""
    d = len(mu) - 1

    def trim(c):
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        return tuple(c)

    def mul(a, b):
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        for k in range(len(out) - 1, d - 1, -1):
            c = out[k]
            for j in range(d + 1):
                out[k - d + j] = (out[k - d + j] - c * mu[j]) % p
        return trim(out)

    return [trim(c) for c in itertools.product(range(p), repeat=d)], mul


QUOTIENT_CASES = [(Zmod(m), _int_table(m), m) for m in range(2, 37)] + [
    (UniQuotRing(GF(p), "t", mu), _poly_table(p, mu), p)
    for p, mu in [
        (2, (0, 0, 1)),
        (2, (0, 1, 0, 1)),
        (2, (1, 0, 1)),
        (2, (0, 0, 1, 1)),
        (2, (0, 0, 1, 0, 1)),
        (2, (1, 1, 1)),  # the field F4
        (3, (2, 0, 1)),
        (3, (0, 0, 0, 1)),
        (3, (1, 0, 1)),  # the field F9
    ]
]


@pytest.mark.parametrize("case", QUOTIENT_CASES, ids=[c[0].describe() for c in QUOTIENT_CASES])
def test_quotient_arithmetic_matches_brute_force(case):
    """is_unit, inv_unit and exact_div against a search of all elements.

    The solutions of b*x = a form a coset of the annihilator of b,
    which is (mu/g)/(mu) with g = gcd(b, mu), so mu/g has norm
    |R| / |solutions|.  The least solution returned must be under m/g
    over Z, and of degree below deg(mu/g) = log_p(|R| / |solutions|)
    over F_p[t]."""
    ring, (elems, mul), base = case
    one = ring.one()
    for b in elems:
        products = [mul(b, x) for x in elems]
        inverses = [x for x, bx in zip(elems, products) if bx == one]
        assert ring.is_unit(b) == bool(inverses)
        if inverses:
            assert ring.inv_unit(b) == inverses[0]
        else:
            with pytest.raises(NotDivisibleError):
                ring.inv_unit(b)
        solutions = {}
        for x, bx in zip(elems, products):
            solutions.setdefault(bx, []).append(x)
        for a in elems:
            sols = solutions.get(a)
            if sols is None:
                with pytest.raises(NotDivisibleError):
                    ring.exact_div(a, b)
                continue
            x = ring.exact_div(a, b)
            assert x in sols
            if ring.kind == "Zmod":
                assert 0 <= x < base // len(sols)
            else:
                assert base ** len(x) * len(sols) <= len(elems)


def test_integer_division_is_balanced():
    q, r = ZZ.euclid_divmod(7, 4)
    assert q * 4 + r == 7 and abs(r) <= 2
    q, r = ZZ.euclid_divmod(-7, 4)
    assert q * 4 + r == -7 and abs(r) <= 2


def test_balanced_remainder_over_a_grid():
    # a = q*b + r with |r| <= |b|/2, and at a tie r takes b's sign
    for a, b in itertools.product(range(-300, 301), range(-40, 41)):
        if b == 0:
            continue
        q, r = ZZ.euclid_divmod(a, b)
        assert type(q) is int and type(r) is int
        assert a == q * b + r, (a, b)
        assert 2 * abs(r) <= abs(b), (a, b)
        if 2 * abs(r) == abs(b):
            assert (r > 0) == (b > 0), (a, b)


def test_rationals_are_fractions():
    assert QQ.exact_div(QQ.from_int(1), QQ.from_int(3)) == Fraction(1, 3)
    assert QQ.render(Fraction(-3, 2)) == "-3/2"


@pytest.mark.parametrize("p", [2, 3, 5, 7, 97])
def test_prime_field_inverses(p):
    F = GF(p)
    for a in range(1, p):
        inv = F.inv_unit(a)
        assert F.mul(a, inv) == F.one()


def test_gf_rejects_composites():
    with pytest.raises(ValueError):
        GF(6)


def test_zmod_unit_detection():
    R = Zmod(12)
    units = {a for a in range(12) if R.is_unit(a)}
    assert units == {1, 5, 7, 11}


def test_zmod_exact_div_picks_least_solution():
    R = Zmod(12)
    assert R.exact_div(8, 2) == 4
    with pytest.raises(NotDivisibleError):
        R.exact_div(5, 2)


def test_poly_ring_renders_canonically():
    R = poly_ring(QQ, ["x"])
    x = R.var_elem()
    f = (x - 1) * (x + 1)
    assert repr(f) == "x^2 - 1"


def test_multi_poly_orders_disagree_on_leading_term():
    lex = poly_ring(QQ, ["x", "y"], order="lex")
    grv = poly_ring(QQ, ["x", "y"], order="grevlex")
    # f = x + y^3: lex leads with x, grevlex with y^3
    f_lex = lex.add(lex.var_elem(0).payload, lex.pow_(lex.var_elem(1).payload, 3))
    f_grv = grv.add(grv.var_elem(0).payload, grv.pow_(grv.var_elem(1).payload, 3))
    assert lex.render(f_lex).startswith("x")
    assert grv.render(f_grv).startswith("y^3")


def test_quotient_ring_reduces_by_modulus():
    R = UniQuotRing(GF(2), "t", (1, 1, 1))  # F2[t]/(t^2+t+1) = F4
    t = R.var_elem()
    assert t * t == t + 1
    assert R.is_unit(t.payload)
    assert t * (t * t) == R.elem(1)  # t^3 = 1 in F4


def test_quotient_by_degree_zero_rejected():
    with pytest.raises(ValueError):
        UniQuotRing(QQ, "x", (3,))


def test_elem_coercion_and_operators():
    R = Zmod(9)
    a = R.elem(5)
    assert (a + 4).payload == 0
    assert (a * 2).payload == 1
    assert (-a).payload == 4
    assert (a - 5).payload == 0
    assert (a ** 2).payload == 7


def test_signature_equality_is_structural():
    assert poly_ring(QQ, ["x", "y"]) == poly_ring(QQ, ["x", "y"])
    assert poly_ring(QQ, ["x", "y"]) != poly_ring(QQ, ["x", "z"])
    assert Zmod(4) != Zmod(8)
    assert GF(5) != Zmod(5)
