"""Level bounds, build witnesses, thick membership, obstruction ladders."""

import importlib
import io
import random
import time

import pytest

from thickgen.cli import run_script
from thickgen.complexes import ChainMap, cone, direct_sum, koszul, two_term
from thickgen.errors import (
    DisconnectedSpectrumError,
    EngineError,
    LevelBoundExceededError,
    PowersStabilizedError,
    WitnessValidationError,
)
from thickgen.generation import (
    POWER_NOTE,
    BuildWitness,
    Cone,
    Leaf,
    LowerBoundCert,
    NotInThickCert,
    Sum,
    koszul_power_obstruction,
    level,
    level_lines,
    level_lower_bound,
    principal_power_witness,
    realize,
    strong_generation_obstruction,
    thick_member,
    validate_witness,
)
from thickgen.homology import ann_total_homology, supph
from thickgen.ideals import Ideal
from thickgen.matrices import Matrix
from thickgen.rings import GF, QQ, ZZ, RingElem, UniQuotRing, Zmod, poly_ring

from oracles import LEVEL_FAMILY_Z, OBSTRUCT_QXY_WITNESSES, THICK_TABLE_Z
from random_complexes import random_chain_map


# ------------------------------------------------------------- level bounds


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_level_family_over_z(n):
    expected = LEVEL_FAMILY_Z[n]
    X = koszul(Ideal(ZZ, [2**n]))
    G = koszul(Ideal(ZZ, [2]))
    cert = level_lower_bound(X, G)
    assert isinstance(cert, LowerBoundCert)
    assert cert.level == expected["level"]
    if n > 1:
        assert int(cert.witness.payload) == expected["witness"]


def test_level_of_self_is_one():
    X = koszul(Ideal(ZZ, [6]))
    cert = level_lower_bound(X, X)
    assert cert.level == 1
    assert "first power" in cert.note


def test_level_lines_carry_both_counters():
    cert = level_lower_bound(koszul(Ideal(ZZ, [4])), koszul(Ideal(ZZ, [2])))
    lines = cert.lines()
    assert "level: 2" in lines and "cones: 1" in lines


def test_level_support_mismatch_is_not_member():
    cert = level_lower_bound(koszul(Ideal(ZZ, [5])), koszul(Ideal(ZZ, [2])))
    assert isinstance(cert, NotInThickCert)
    assert "membership: no" in cert.lines()


def test_level_cap_exceeded():
    with pytest.raises(LevelBoundExceededError):
        level_lower_bound(koszul(Ideal(ZZ, [16])), koszul(Ideal(ZZ, [2])), cap=2)


def test_level_rejects_exact_inputs():
    X = koszul(Ideal(ZZ, [2]))
    E = cone(ChainMap.identity(X))
    with pytest.raises(EngineError):
        level_lower_bound(E, X)
    with pytest.raises(EngineError):
        level_lower_bound(X, E)


def _count_homology_calls(monkeypatch):
    # homology over Z reads each differential's invariant factors, so
    # count those calls, one shape per differential read
    module = importlib.import_module("thickgen.homology")
    calls = []
    invariant_factors = module.invariant_factors
    monkeypatch.setattr(
        module, "invariant_factors", lambda A: calls.append(A.shape()) or invariant_factors(A)
    )
    return calls


@pytest.mark.parametrize("x,cert_type", [(6, NotInThickCert), (4, LowerBoundCert)])
def test_level_bound_takes_each_homology_once(monkeypatch, x, cert_type):
    # X and G each have one differential, read once by the one homology
    # sweep that annihilators and supports share
    calls = _count_homology_calls(monkeypatch)
    cert = level_lower_bound(koszul(Ideal(ZZ, [x])), koszul(Ideal(ZZ, [2])))
    assert isinstance(cert, cert_type)
    assert calls == [(1, 1), (1, 1)]


# ------------------------------------------------- annihilator cone lemma


def _rotations(f):
    C = cone(f)
    return [(f.src, f.dst, C), (f.dst, C, f.src.shift(1)), (C, f.src.shift(1), f.dst.shift(1))]


@pytest.mark.parametrize("ring,seed", [(ZZ, 11), (ZZ, 12), (Zmod(12), 13)])
def test_cone_annihilator_lemma_on_random_maps(ring, seed):
    rng = random.Random(seed)
    for _ in range(8):
        f = random_chain_map(ring, rng)
        for A, B, C in _rotations(f):
            aA = ann_total_homology(A)
            aC = ann_total_homology(C)
            aB = ann_total_homology(B)
            assert aB.contains(aA.product(aC))


# --------------------------------------------------------- thick membership


@pytest.mark.parametrize("x,g,expected", THICK_TABLE_Z)
def test_thick_membership_table(x, g, expected):
    verdict = thick_member(koszul(Ideal(ZZ, [x])), koszul(Ideal(ZZ, [g])))
    assert verdict.member is expected


def test_thick_membership_reflexive_and_sum_monotone():
    X = koszul(Ideal(ZZ, [6]))
    Y = koszul(Ideal(ZZ, [10]))
    S = direct_sum([X, Y])
    assert thick_member(X, X).member
    assert thick_member(X, S).member
    assert thick_member(Y, S).member
    assert not thick_member(S, X).member  # (5) escapes V(6)


@pytest.mark.parametrize(
    "ring",
    [
        ZZ,
        Zmod(12),
        Zmod(360),
        poly_ring(GF(5), ["x"]),
        poly_ring(QQ, ["x"]),
        UniQuotRing(GF(5), "t", (1, 0, 1)),
    ],
    ids=["Z", "Z/12", "Z/360", "F5[x]", "Q[x]", "F5[t]/(t^2+1)"],
)
def test_level_bound_and_thick_membership_decide_support_alike(ring):
    # level-lb refuses exactly the pairs thick-member rejects, and names
    # the one normal generator of ann(H* G) as the element that escapes
    rng = random.Random(28)
    pool = [
        koszul(Ideal(ring, [RingElem(ring, ring.random_element(rng)) for _ in range(k)]))
        for k in (1, 1, 1, 1, 1, 1, 2, 2)
    ]
    pool += [cone(random_chain_map(ring, rng, max_rank=3)) for _ in range(4)]
    pool = [X for X in pool if not ann_total_homology(X).is_unit_ideal()]
    verdicts = set()
    for X in pool:
        for G in pool:
            member = thick_member(X, G).member
            cert = level_lower_bound(X, G)
            assert isinstance(cert, NotInThickCert) is not member
            if not member:
                assert cert.missing_gen == supph(G).ideal().normal_gens[0]
            verdicts.add(member)
    assert verdicts == {True, False}


# ----------------------------------------------------------- build witnesses


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_principal_witness_validates_at_level_n(n):
    x = ZZ.elem(2)
    witness, target = principal_power_witness(x, n)
    G = koszul(Ideal(ZZ, [2]))
    assert validate_witness(witness, target, G) == n
    assert level(witness.root) == n


def test_principal_witness_over_polynomials():
    R = poly_ring(QQ, ["x"])
    witness, target = principal_power_witness(R.var_elem(), 3)
    G = koszul(Ideal(R, [R.var_elem()]))
    assert validate_witness(witness, target, G) == 3


def test_upper_bound_meets_lower_bound_on_principal_family():
    for n in (2, 3):
        witness, target = principal_power_witness(ZZ.elem(2), n)
        G = koszul(Ideal(ZZ, [2]))
        upper = validate_witness(witness, target, G)
        lower = level_lower_bound(target, G)
        assert lower.level <= upper == n
        assert f"cones: {n - 1}" in level_lines(upper)


def test_comparison_may_point_from_the_target_to_the_realization():
    X = two_term(ZZ, -2)
    G = koszul(Ideal(ZZ, [2]))
    assert X != G
    comps = {-1: Matrix(ZZ, [[-1]], 1, 1), 0: Matrix(ZZ, [[1]], 1, 1)}
    witness = BuildWitness(Leaf(0), ChainMap(X, G, comps))
    assert validate_witness(witness, X, G) == 1


def test_sum_of_shifted_leaves_is_level_one():
    G = koszul(Ideal(ZZ, [3]))
    node = Sum((Leaf(0), Leaf(2), Leaf(-1)))
    X = realize(node, G)
    assert validate_witness(BuildWitness(root=node), X, G) == 1


def test_tampered_glue_is_rejected_with_path():
    witness, target = principal_power_witness(ZZ.elem(2), 3)
    root = witness.root
    bad_glue = ChainMap(
        root.glue.src,
        root.glue.dst,
        {0: root.glue.comp(0).scale(ZZ.elem(3))},
    )
    tampered = type(witness)(root=Cone(base=root.base, top=root.top, glue=bad_glue))
    with pytest.raises(WitnessValidationError) as err:
        validate_witness(tampered, target, koszul(Ideal(ZZ, [2])))
    assert "root" in str(err.value)


def _witness_case(case):
    """(witness, target) that fails validation against koszul((2))."""
    G = koszul(Ideal(ZZ, [2]))
    if case == "tall-top":
        tall = principal_power_witness(ZZ.elem(2), 2)[0].root
        return BuildWitness(Cone(Leaf(0), tall, ChainMap.identity(G))), G
    if case == "glue-source":
        return BuildWitness(Cone(Leaf(0), Leaf(0), ChainMap.identity(G))), G
    if case == "glue-target":
        return BuildWitness(Cone(Leaf(0), Leaf(0), ChainMap.identity(G.shift(-1)))), G
    if case == "not-quasi-iso":
        return BuildWitness(Leaf(0), comparison=ChainMap(G, G, {})), G
    if case == "disjoint-comparison":
        return BuildWitness(Leaf(0), comparison=ChainMap.identity(G.shift(1))), G
    return BuildWitness(Leaf(0)), koszul(Ideal(ZZ, [4]))


@pytest.mark.parametrize(
    "case,path,reason",
    [
        ("tall-top", "root.top", "cone tops must stay at level one"),
        ("glue-source", "root.glue", "glue source is not the desuspended top"),
        ("glue-target", "root.glue", "glue target is not the realized base"),
        ("not-quasi-iso", "comparison", "comparison map is not a quasi-isomorphism"),
        (
            "disjoint-comparison",
            "comparison",
            "comparison map does not join the realization and the target",
        ),
        ("no-comparison", "root", "realization differs from the target and no comparison map given"),
    ],
)
def test_invalid_witness_names_path_and_reason(case, path, reason):
    witness, target = _witness_case(case)
    with pytest.raises(WitnessValidationError) as err:
        validate_witness(witness, target, koszul(Ideal(ZZ, [2])))
    assert (err.value.path, err.value.reason) == (path, reason)


def test_wrong_target_is_rejected():
    witness, target = principal_power_witness(ZZ.elem(2), 2)
    with pytest.raises(WitnessValidationError):
        validate_witness(witness, koszul(Ideal(ZZ, [8])), koszul(Ideal(ZZ, [2])))


# ------------------------------------------------------- obstruction ladder


@pytest.mark.parametrize("n", [2, 3, 4])
def test_obstruction_witness_over_qxy(n):
    R = poly_ring(QQ, ["x", "y"])
    I = Ideal(R, [R.var_elem(0), R.var_elem(1)])
    cert = koszul_power_obstruction(I, n)
    assert cert.level == n
    assert str(cert.witness) == OBSTRUCT_QXY_WITNESSES[n]
    assert cert.note == POWER_NOTE


@pytest.mark.parametrize(
    "ring,gens", [(ZZ, [2]), (poly_ring(QQ, ["x", "y"]), None)], ids=["Z", "Q[x,y]"]
)
def test_obstruction_at_power_one_is_level_one(ring, gens):
    I = Ideal(ring, gens or [ring.var_elem(0), ring.var_elem(1)])
    cert = koszul_power_obstruction(I, 1)
    assert cert.level == 1
    assert ring.is_one(cert.witness.payload)


def test_obstruction_stabilized_powers_raise():
    with pytest.raises(PowersStabilizedError) as err:
        koszul_power_obstruction(Ideal(Zmod(8), [2]), 4)
    assert err.value.index == 3


def test_obstruction_ladder_report():
    R = poly_ring(QQ, ["x", "y"])
    I = Ideal(R, [R.var_elem(0), R.var_elem(1)])
    rep = strong_generation_obstruction(I, 4)
    assert rep.verdict == "not-strongly-generated"
    assert [c.level for c in rep.certificates] == [2, 3, 4]
    blocks = rep.blocks()
    assert blocks[0][-1] == "stabilizes: no"
    assert [b[0] for b in blocks[1:-1]] == ["n: 2", "n: 3", "n: 4"]
    assert blocks[-1][0] == "verdict: not-strongly-generated"


def test_obstruction_ladder_computes_each_power_once(monkeypatch):
    # the rungs n = 2..10 share one ladder I^2..I^10: 9 products, where
    # rebuilding I^(n-1) for every rung takes 1 + 2 + ... + 9 = 45
    R = poly_ring(QQ, ["x", "y"])
    I = Ideal(R, [R.var_elem(0), R.var_elem(1)])
    calls = []
    product = Ideal.product
    monkeypatch.setattr(Ideal, "product", lambda a, b: calls.append(1) or product(a, b))
    rep = strong_generation_obstruction(I, 10)
    assert [c.level for c in rep.certificates] == list(range(2, 11))
    assert len(calls) == 9


def _count_koszul_builds(monkeypatch):
    built = []
    for name in ("thickgen.complexes", "thickgen.generation"):
        module = importlib.import_module(name)
        monkeypatch.setattr(module, "koszul", lambda I: built.append(I) or koszul(I))
    return built


def test_obstruction_over_z_is_homology_checked():
    # the two Koszul facts of POWER_NOTE stand in for the homology check:
    # the Z rung keeps its level and witness and carries the same note
    cert = koszul_power_obstruction(Ideal(ZZ, [2]), 5)
    assert cert.level == 5
    assert int(cert.witness.payload) == 16
    assert cert.note == POWER_NOTE


def test_obstruction_ladder_checks_the_generator_homology_once(monkeypatch):
    # both containments of POWER_NOTE hold for any generator list, so no
    # rung computes a Koszul complex or its homology, over Z or Q[x,y]:
    # the generator's homology is taken zero times, not once per ladder
    calls = _count_homology_calls(monkeypatch)
    built = _count_koszul_builds(monkeypatch)
    rep = strong_generation_obstruction(Ideal(ZZ, [2]), 6)
    assert [c.level for c in rep.certificates] == [2, 3, 4, 5, 6]
    assert [int(c.witness.payload) for c in rep.certificates] == [2, 4, 8, 16, 32]
    R = poly_ring(QQ, ["x", "y"])
    rep = strong_generation_obstruction(Ideal(R, [R.var_elem(0), R.var_elem(1)]), 4)
    assert [c.level for c in rep.certificates] == [2, 3, 4]
    assert [str(c.witness) for c in rep.certificates] == [
        OBSTRUCT_QXY_WITNESSES[n] for n in (2, 3, 4)
    ]
    assert all(c.note == POWER_NOTE for c in rep.certificates)
    assert calls == [] and built == []


def test_single_obstruction_runs_both_homology_checks(monkeypatch):
    # a direct call takes the ladder's path, so neither containment is
    # checked by homology: no Koszul complex is built
    calls = _count_homology_calls(monkeypatch)
    built = _count_koszul_builds(monkeypatch)
    cert = koszul_power_obstruction(Ideal(ZZ, [2]), 5)
    assert cert.level == 5 and cert.note == POWER_NOTE
    assert calls == [] and built == []


def test_obstruction_on_nine_generators_over_z_is_fast():
    # K(I) on nine generators has rank 512; the bound never builds it
    script = (
        "ring R = Z\n"
        "ideal I over R = (12, 18, 30, 42, 66, 78, 102, 114, 138)\n"
        "obstruct R I --max 3\n"
    )
    start = time.perf_counter()
    code = run_script(script, machine=True, out=io.StringIO())
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 1.0


def test_obstruction_ladder_over_qxyz_is_fast():
    # m = (x, y, z) is monomial: f lies in m^k iff every term of f has
    # total degree >= k, so I^(n-1) \ I^n membership needs no Groebner basis
    R = poly_ring(QQ, ["x", "y", "z"])
    I = Ideal(R, [R.var_elem(i) for i in range(3)])
    start = time.perf_counter()
    rep = strong_generation_obstruction(I, 6)
    elapsed = time.perf_counter() - start
    assert rep.verdict == "not-strongly-generated"
    assert [c.level for c in rep.certificates] == [2, 3, 4, 5, 6]
    for cert in rep.certificates:
        assert min(sum(R.mono.unpack(m)) for m, _ in cert.witness.payload) == cert.level - 1
    assert elapsed < 10.0


def test_obstruction_degenerate_nilpotent():
    # (m, generator, max, index): nilpotence is decided exactly, also
    # when the index lies past the ladder's max
    for m, gen, max_n, index in [(8, 2, 5, 3), (32, 2, 3, 5)]:
        rep = strong_generation_obstruction(Ideal(Zmod(m), [gen]), max_n)
        assert rep.verdict == "degenerate-nilpotent"
        assert rep.nilpotency_index == index
        assert rep.blocks()[0][-2:] == [f"stabilizes: at {index}", f"nilpotent: index {index}"]
        assert not rep.certificates
        assert "Spec R" in rep.note


def test_obstruction_disconnected_spectrum_refuses():
    with pytest.raises(DisconnectedSpectrumError) as err:
        strong_generation_obstruction(Ideal(Zmod(6), [2]), 4)
    assert "3" in str(err.value) or "4" in str(err.value)
