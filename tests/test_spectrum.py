"""Idempotents, connectedness of Spec, and the nilpotence dichotomy."""

from fractions import Fraction

import pytest

from thickgen.errors import FactorizationIncompleteError
from thickgen.ideals import Ideal
from thickgen.rings import GF, QQ, ZZ, UniQuotRing, Zmod, poly_ring
from thickgen.spectrum import (
    idempotents,
    is_connected_spec,
    nilpotence_lemma_check,
    spec_description,
)

from oracles import IDEMPOTENTS_MOD, is_prime_power_int


@pytest.mark.parametrize("m,expected", sorted(IDEMPOTENTS_MOD.items()))
def test_idempotents_mod_m_frozen(m, expected):
    R = Zmod(m)
    assert sorted(e for e in idempotents(R)) == expected


@pytest.mark.parametrize("m", range(2, 120))
def test_connected_iff_prime_power(m):
    connected, witness = is_connected_spec(Zmod(m))
    assert connected is bool(is_prime_power_int(m))
    if not connected:
        R = Zmod(m)
        # witness really is a nontrivial idempotent
        assert witness not in (0, 1)
        assert R.mul(witness, witness) == witness


def test_domains_and_fields_are_connected():
    for R in (ZZ, QQ, GF(7), poly_ring(QQ, ["x", "y"])):
        assert is_connected_spec(R) == (True, None)
        assert idempotents(R) == [R.zero(), R.one()]


def test_uniquot_idempotents_split_case():
    # F2[t]/(t^2+t) = F2 x F2: four idempotents
    R = UniQuotRing(GF(2), "t", (0, 1, 1))
    idems = idempotents(R)
    rendered = sorted(R.render(e) for e in idems)
    assert rendered == ["0", "1", "t", "t + 1"]


def test_uniquot_split_witness_is_first_block_idempotent():
    # F2[t]/(t^2+t): the blocks are t and t + 1, and the witness is the
    # CRT idempotent of the first, = 1 mod t and = 0 mod t + 1
    R = UniQuotRing(GF(2), "t", (0, 1, 1))
    connected, witness = is_connected_spec(R)
    assert connected is False
    assert R.render(witness) == "t + 1"


def test_uniquot_incomplete_split_is_still_disconnected():
    # (t - 1)(t^4 + 3t^2 + 2) over Q: the quartic has no rational root
    # and is not certified irreducible, so idempotents() refuses, yet the
    # two coprime blocks give the exact idempotent (t^2 + 1)(t^2 + 2)/6
    R = UniQuotRing(QQ, "t", tuple(Fraction(c) for c in (-2, 2, -3, 3, -1, 1)))
    connected, witness = is_connected_spec(R)
    assert connected is False
    assert R.render(witness) == "1/6*t^4 + 1/2*t^2 + 1/3"
    assert R.mul(witness, witness) == witness
    with pytest.raises(FactorizationIncompleteError):
        idempotents(R)


def test_uniquot_field_case_connected():
    # t^2+t+1 irreducible over F2: a field, hence connected
    R = UniQuotRing(GF(2), "t", (1, 1, 1))
    assert is_connected_spec(R) == (True, None)
    assert sorted(R.render(e) for e in idempotents(R)) == ["0", "1"]


def test_uniquot_nonreduced_connected():
    # F2[t]/(t^2): local, connected, not reduced
    R = UniQuotRing(GF(2), "t", (0, 0, 1))
    assert is_connected_spec(R) == (True, None)


@pytest.mark.parametrize(
    "m,gen,verdict",
    [
        (8, 2, "nilpotent-as-required"),
        (9, 3, "nilpotent-as-required"),
        (6, 2, "hypothesis-fails-disconnected"),
        (12, 2, "hypothesis-fails-disconnected"),
    ],
)
def test_nilpotence_dichotomy_quotients(m, gen, verdict):
    rep = nilpotence_lemma_check(Ideal(Zmod(m), [gen]), 8)
    assert rep.verdict == verdict


def test_nilpotence_no_stabilization_over_z():
    rep = nilpotence_lemma_check(Ideal(ZZ, [2]), 8)
    assert rep.verdict == "no-stabilization-within-bound"
    assert rep.stabilization_index is None
    assert "stabilizes: no" in rep.lines()


def test_nilpotence_disconnected_but_nilpotent_gen():
    # over Z/12 the ideal (6) squares to zero even though Spec splits
    rep = nilpotence_lemma_check(Ideal(Zmod(12), [6]), 6)
    assert rep.connected is False
    assert rep.verdict == "nilpotent"


def test_nilpotence_unit_ideal_inapplicable():
    rep = nilpotence_lemma_check(Ideal(Zmod(8), [3]), 6)
    assert rep.verdict == "inapplicable-unit-ideal"


def test_spec_description_points_mod_12():
    rep = spec_description(Zmod(12))
    assert rep.connected is False
    assert sorted(p.render() for p in rep.points) == ["(2)", "(3)"]
    joined = "\n".join(rep.lines())
    assert "connected: no" in joined and "idempotent:" in joined


def test_spec_description_field_and_domain():
    assert "single point" in spec_description(GF(5)).note
    lines = spec_description(ZZ).lines()
    assert "connected: yes" in lines
