"""Buchberger pipeline: reduced bases, S-polynomial closure, and the
degree-bounded linear-algebra membership oracle."""

import contextlib
import random
import signal
from fractions import Fraction

import pytest

from oracles import all_pairs_groebner, linear_membership, mp_const, mp_var
from thickgen.budget import StepCounter
from thickgen.groebner import buchberger, normal_form, reduce_basis, s_polynomial
from thickgen.ideals import Ideal
from thickgen.rings import GF, QQ, RingElem, poly_ring

R2 = poly_ring(QQ, ["x", "y"])
# the invariant tests run over each of these: two and three variables,
# characteristic 0 and p, lex and grevlex
INVARIANT_RINGS = [
    poly_ring(F, names, order)
    for F, names in ((QQ, ["x", "y"]), (QQ, ["x", "y", "z"]), (GF(32003), ["x", "y"]))
    for order in ("grevlex", "lex")
]


def unpacked(ring, payload):
    """Engine term tuples -> {exponent tuple: coefficient}, the oracles'
    polynomials."""
    return {ring.mono.unpack(m): c for m, c in payload}


def to_oracle(ring, payload):
    """Engine term tuples -> oracle exponent dicts over Q."""
    return {exp: Fraction(c) for exp, c in unpacked(ring, payload).items()}


def random_poly(ring, rng, deg=3, terms=4):
    payload = ring.zero()
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(ring.nvars)] += 1
        c = rng.randint(-5, 5)
        mono = ring.from_int(c)
        for i, e in enumerate(exps):
            mono = ring.mul(mono, ring.pow_(ring.var_elem(i).payload, e))
        payload = ring.add(payload, mono)
    return payload


def test_normal_form_is_zero_on_members():
    x, y = R2.var_elem(0).payload, R2.var_elem(1).payload
    basis = buchberger(R2, [x, y])
    f = R2.add(R2.mul(x, x), R2.mul(x, y))
    assert not normal_form(R2, f, basis)


def test_spolynomials_of_reduced_basis_reduce_to_zero():
    for R in INVARIANT_RINGS:
        rng = random.Random(42)
        for _ in range(25):
            gens = [random_poly(R, rng) for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if g] or [R.var_elem(0).payload]
            G = reduce_basis(R, buchberger(R, gens))
            for i in range(len(G)):
                for j in range(i + 1, len(G)):
                    s = s_polynomial(R, G[i], G[j])
                    assert not normal_form(R, s, G), R.describe()


def test_reduced_basis_is_generator_order_invariant():
    for R in INVARIANT_RINGS:
        rng = random.Random(7)
        for _ in range(15):
            gens = [random_poly(R, rng) for _ in range(3)]
            gens = [g for g in gens if g]
            if not gens:
                continue
            a = reduce_basis(R, buchberger(R, gens))
            shuffled = list(gens)
            rng.shuffle(shuffled)
            b = reduce_basis(R, buchberger(R, shuffled))
            assert a == b, R.describe()


def parse_gens(R, texts):
    env = {name: R.var_elem(i) for i, name in enumerate(R.vars)}
    return [eval(t, {"__builtins__": {}}, env) for t in texts]  # test-local shorthand


@pytest.mark.parametrize(
    "names,gens,n,ticks,size",
    [
        (["x", "y", "z"], ["x", "y", "z"], 5, 0, 21),
        (["x", "y"], ["x**2 + 3*y", "x*y"], 2, 12, 4),
        (["x", "y"], ["x**2 + 3*y", "x*y"], 3, 18, 6),
        (["x", "y"], ["x**2 + 3*y", "x*y"], 4, 28, 7),
    ],
    ids=["m^4*m", "J^1*J", "J^2*J", "J^3*J"],
)
def test_pair_order_is_pinned_by_tick_count(names, gens, n, ticks, size):
    # Buchberger ticks once per pair taken and once per reduction step,
    # so the count changes with the order in which pairs are taken and
    # with the pairs the criteria drop; a monomial input takes no pairs.
    # The product J^(n-1)*J is formed as Ideal.product forms it
    R = poly_ring(QQ, names)
    J = Ideal(R, parse_gens(R, gens))
    prods = [R.mul(a, b) for a in J.power(n - 1).normal_payloads for b in J.normal_payloads]
    counter = StepCounter("buchberger")
    basis = buchberger(R, prods, counter)
    assert counter.count == ticks
    assert len(basis) == size


def assert_matches_oracle(R, gens, counter=None):
    p = R.F.p if R.F.kind == "Fp" else None
    want = all_pairs_groebner([unpacked(R, g) for g in gens], R.order, p)
    got = buchberger(R, gens, counter)
    assert [unpacked(R, g) for g in got] == want, (R.describe(), [R.render(g) for g in gens])
    return got


def test_reduced_basis_matches_all_pairs_oracle_on_random_inputs():
    for F in (QQ, GF(32003)):
        for order in ("grevlex", "lex"):
            R = poly_ring(F, ["x", "y"], order)
            rng = random.Random(11)
            for _ in range(20):
                assert_matches_oracle(R, [random_poly(R, rng) for _ in range(rng.randint(1, 3))])


def test_reduced_basis_matches_all_pairs_oracle_on_monomial_inputs():
    rng = random.Random(5)
    for order in ("grevlex", "lex"):
        R = poly_ring(QQ, ["x", "y", "z"], order)
        for _ in range(20):
            gens = []
            for _ in range(rng.randint(1, 6)):
                exp = tuple(rng.randint(0, 4) for _ in range(3))
                gens.append(((R.mono.pack(exp), QQ.from_int(rng.choice([-3, -1, 2, 5]))),))
            counter = StepCounter("buchberger")
            assert_matches_oracle(R, gens, counter)
            assert counter.count == 0


@pytest.mark.parametrize(
    "gens,max_n",
    [
        (["x**2 + 3*y", "x*y"], 4),
        (["x**2 + y", "y**2 + z", "x*z"], 3),
        (["x*y + z**2", "x**2 - y*z", "y**3"], 2),
    ],
)
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_reduced_basis_matches_all_pairs_oracle_on_power_products(gens, max_n, order):
    R = poly_ring(QQ, ["x", "y", "z"], order)
    J = Ideal(R, parse_gens(R, gens))
    for n in range(2, max_n + 1):
        prods = [R.mul(a, b) for a in J.power(n - 1).normal_payloads for b in J.normal_payloads]
        assert_matches_oracle(R, prods)


@contextlib.contextmanager
def wall_clock_limit(seconds):
    """Raise TimeoutError in the test once it has run this long."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_lex_input_whose_remainders_grow_when_reduced_by_the_pruned_set():
    # buchberger reduces each S-polynomial by every element found so
    # far; reducing by the elements the update step keeps active only
    # made the polynomials of this input grow without bound, so the
    # test fails on a timer instead of running for minutes
    R = poly_ring(QQ, ["x", "y", "z"], "lex")
    texts = ["-2*x*y**2 + 2*y**3 + 1", "-x**2*y - 2*x*y*z + 3*x - 5", "3*x**2*y + x - 9"]
    with wall_clock_limit(30):
        G = assert_matches_oracle(R, [g.payload for g in parse_gens(R, texts)])
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                assert not normal_form(R, s_polynomial(R, G[i], G[j]), G)


def test_membership_agrees_with_linear_oracle():
    rng = random.Random(3)
    x, y = mp_var(0, 2), mp_var(1, 2)
    checked = 0
    for _ in range(30):
        gens = [random_poly(R2, rng, deg=2, terms=3) for _ in range(2)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        I = Ideal(R2, [RingElem(R2, g) for g in gens])
        query = random_poly(R2, rng, deg=2, terms=3)
        got = I.member(RingElem(R2, query))
        oracle_gens = [to_oracle(R2, g) for g in gens]
        oracle_query = to_oracle(R2, query) or mp_const(0, 2)
        # bound high enough that the oracle is conclusive both ways here
        want = linear_membership(oracle_query, oracle_gens, 2, 6)
        assert got == want
        checked += 1
    assert checked >= 20


def test_known_basis_for_power_ideal():
    x, y = R2.var_elem(0), R2.var_elem(1)
    I = Ideal(R2, [x, y]).power(2)
    lead_payloads = I.normal_payloads if hasattr(I, "normal_payloads") else I._normal
    rendered = [R2.render(p) for p in lead_payloads]
    assert rendered == ["x^2", "x*y", "y^2"]


def test_unit_ideal_detected_by_basis():
    x = R2.var_elem(0)
    I = Ideal(R2, [x, x + 1])
    assert I.is_unit_ideal()
    assert I.member(RingElem(R2, R2.one()))


@pytest.mark.parametrize(
    "f,g,expect_zero",
    [
        ("x", "y", True),                # coprime leading terms: s-poly reduces
        ("x*y - 1", "y**2 - 1", False),  # classic pair generating x - y
    ],
)
def test_spoly_examples(f, g, expect_zero):
    env = {"x": R2.var_elem(0), "y": R2.var_elem(1)}

    def parse(txt):
        return eval(txt, {"__builtins__": {}}, env).payload  # test-local shorthand

    a, b = parse(f), parse(g)
    s = s_polynomial(R2, a, b)
    reduced = normal_form(R2, s, (a, b))
    assert (not reduced) == expect_zero


def test_radical_membership_multivariate():
    x, y = R2.var_elem(0), R2.var_elem(1)
    I2 = Ideal(R2, [x * x, y])
    assert I2.radical_member(x)
    assert I2.radical_member(y)
    assert not I2.radical_member(x + 1)
    # x + y is not in the radical of (x^2, y^2)? it is: (x+y)^3 lands inside
    J = Ideal(R2, [x * x, y * y])
    assert J.radical_member(x + y)
