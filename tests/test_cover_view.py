"""Principal-ideal corners read through the (cover ring, modulus) view.

Every case runs over a domain and a quotient of each Euclidean kind:
Z, Z/8, Q[x] and F_5[t]/(t^2), and is checked against a closed form.
"""

import pytest

from thickgen.complexes import FreeComplex, koszul
from thickgen.homology import FPModule, ann_total_homology, fp_direct_sum, resolve_primes, supph
from thickgen.ideals import Ideal
from thickgen.rings import GF, QQ, ZZ, UniQuotRing, Zmod, poly_ring


def _z():
    return ZZ, ZZ.elem(2)


def _z8():
    R = Zmod(8)
    return R, R.elem(2)


def _qx():
    R = poly_ring(QQ, ["x"])
    return R, R.var_elem()


def _f5t2():
    R = UniQuotRing(GF(5), "t", (0, 0, 1))
    return R, R.var_elem()


# name -> (ring and its non-unit a, rendered a, rendered modulus,
#          primes of (a^2), primes of V(0))
CASES = {
    "Z": (_z, "2", "0", ["(2)"], None),
    "Z/8": (_z8, "2", "8", ["(2)"], ["(2)"]),
    "Q[x]": (_qx, "x", "0", ["(x)"], None),
    "F5[t]/(t^2)": (_f5t2, "t", "t^2", ["(t)"], ["(t)"]),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    make, a_text, mu_text, sq_primes, zero_primes = CASES[request.param]
    R, a = make()
    return R, a, a_text, mu_text, sq_primes, zero_primes


def test_cover_gen_is_canonical_generator(case):
    R, a, a_text, mu_text, _, _ = case
    cover = R.cover_ring
    # a unit multiple and a multiple of a: the cover generator is a itself
    unit = R.elem(-1 if R.kind == "Z" else 3)
    assert cover.render(Ideal(R, [unit * a, a * a]).cover_gen) == a_text
    # the zero ideal is generated by the modulus, zero over a domain
    assert cover.render(Ideal(R, [0]).cover_gen) == mu_text
    assert cover.render(Ideal(R, [1]).cover_gen) == "1"


def test_fp_direct_sum_with_free_part(case):
    R, a, _, _, _, _ = case
    # R (+) R/(a): free rank 1, torsion factor (a)
    S = fp_direct_sum(FPModule(R, 1, ()), FPModule(R, 0, (a.payload,)))
    assert (S.free_rank, S.factors) == (1, (a.payload,))
    # R/(a) (+) R/(a) (+) R^2 keeps both torsion factors and both free ranks
    T = fp_direct_sum(FPModule(R, 1, (a.payload,)), FPModule(R, 1, (a.payload,)))
    assert (T.free_rank, T.factors) == (2, (a.payload, a.payload))
    assert fp_direct_sum(FPModule(R, 0, ()), FPModule(R, 0, ())).is_zero()


@pytest.mark.parametrize("gens", ["a", "a,a^2", "a^2", "0", "a,1"])
def test_ann_total_homology_of_koszul_is_the_ideal(case, gens):
    # a change of generators turns K(f_1..f_k) into K(g) (x) K(0,...,0)
    # with (g) = (f_1..f_k), and H*(K(g)) = R/(g) (+) ann_R(g)[1] with
    # ann_R(g) = (mu/g)/(mu) ~ R/(g); so ann H*(K(I)) = I
    R, a, _, _, _, _ = case
    values = {"a": a, "a^2": a * a, "0": R.elem(0), "1": R.elem(1)}
    I = Ideal(R, [values[g] for g in gens.split(",")])
    assert ann_total_homology(koszul(I)) == I


def test_resolve_primes_of_torsion_and_zero_components(case):
    R, a, _, _, sq_primes, zero_primes = case
    # V(a^2): over F5[t]/(t^2) the ideal (t^2) is (0), a zero component
    S = supph(koszul(Ideal(R, [a * a])))
    assert [p.render() for p in resolve_primes(S)] == sq_primes
    # R in degree 0 has support V(0): Spec R, finite only over a quotient
    primes = resolve_primes(supph(FreeComplex(R, {0: 1}, {})))
    assert (None if primes is None else [p.render() for p in primes]) == zero_primes


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_resolve_primes_of_a_field_component(field):
    # over a field the support of R is V(0) = Spec, the single point (0)
    S = supph(FreeComplex(field, {0: 1}, {}))
    assert [p.render() for p in resolve_primes(S)] == ["(0)"]
