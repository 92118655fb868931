"""Acceptance gate: one test per shipped guarantee, each printing a
single criterion line with its runtime against the pinned budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import io
import random
import time
from fractions import Fraction

import pytest

from thickgen.cli import run_script
from thickgen.complexes import cone, koszul
from thickgen.generation import (
    LowerBoundCert,
    level_lower_bound,
    principal_power_witness,
    strong_generation_obstruction,
    thick_member,
    validate_witness,
)
from thickgen.groebner import normal_form, s_polynomial
from thickgen.homology import ann_total_homology, homology
from thickgen.errors import DisconnectedSpectrumError
from thickgen.ideals import Ideal
from thickgen.matrices import Matrix
from thickgen.rings import GF, QQ, ZZ, RingElem, Zmod, poly_ring
from thickgen.snf import smith_normal_form
from thickgen.spectrum import is_connected_spec, nilpotence_lemma_check

from oracles import (
    LEVEL_FAMILY_Z,
    OBSTRUCT_QXY_WITNESSES,
    THICK_TABLE_Z,
    int_det,
    is_prime_power_int,
    linear_membership,
)
from random_complexes import random_chain_map


class _Budget:
    """Wall-clock guard that also emits the criterion verdict line."""

    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.monotonic() - self.t0
        if exc_type is None:
            assert dt < self.seconds, (
                f"criterion {self.criterion} overran its budget: "
                f"{dt:.2f}s >= {self.seconds}s"
            )
            print(f"criterion {self.criterion}: PASS ({dt:.2f}s < {self.seconds}s)")
        else:
            print(f"criterion {self.criterion}: FAIL after {dt:.2f}s")
        return False


def test_criterion_1_cone_annihilator_containment():
    with _Budget(1, 30):
        for ring, seed in ((ZZ, 101), (Zmod(12), 102)):
            rng = random.Random(seed)
            for _ in range(200):
                f = random_chain_map(ring, rng)
                C = cone(f)
                aX = ann_total_homology(f.src)
                aY = ann_total_homology(f.dst)
                aC = ann_total_homology(C)
                # shifts do not move annihilators, so the three
                # rotations of X -> Y -> C reduce to these containments
                assert aY.contains(aX.product(aC))
                assert aC.contains(aY.product(aX))
                assert aX.contains(aC.product(aY))


def _random_ideals(rng):
    """50 random nonzero ideals spread over Z, Z/m, F_p[x]."""
    out = []
    for i in range(50):
        family = i % 3
        if family == 0:
            ring = ZZ
            gens = [rng.randint(-30, 30) for _ in range(rng.randint(1, 3))]
        elif family == 1:
            ring = Zmod(rng.choice([4, 6, 8, 9, 12, 16, 25, 27, 30, 36]))
            gens = [rng.randint(0, ring.m - 1) for _ in range(rng.randint(1, 3))]
        else:
            F = GF(rng.choice([2, 3, 5]))
            ring = poly_ring(F, ["x"])
            x = ring.var_elem().payload
            gens = []
            for _ in range(rng.randint(1, 2)):
                g = ring.from_int(rng.randrange(1, F.p))
                for _ in range(rng.randint(0, 3)):
                    g = ring.mul(g, ring.add(x, ring.from_int(rng.randrange(F.p))))
                gens.append(g)
        gens = [g for g in gens if not ring.is_zero(ring.elem(g).payload if isinstance(g, int) else g)]
        if not gens:
            gens = [ring.one()]
        out.append(Ideal(ring, [RingElem(ring, g) if not isinstance(g, (int, RingElem)) else g for g in gens]))
    return out


def _cyclic_module_signature(I):
    """(free_rank, factors) of R/I in invariant-factor form."""
    ring = I.ring
    if I.is_unit_ideal():
        return (0, ())
    if I.is_zero_ideal():
        return (1, ())
    return (0, I.normal_payloads)


def test_criterion_2_koszul_h0_and_annihilator():
    with _Budget(2, 30):
        rng = random.Random(202)
        for I in _random_ideals(rng):
            K = koszul(I)
            H0 = homology(K, 0)
            assert (H0.free_rank, H0.factors) == _cyclic_module_signature(I)
            total = ann_total_homology(K)
            for g in I.normal_gens:
                assert total.member(g)
            assert I.contains(total)


def test_criterion_3_tight_level_family():
    with _Budget(3, 30):
        G = koszul(Ideal(ZZ, [2]))
        for n in range(1, 9):
            cert = level_lower_bound(koszul(Ideal(ZZ, [2**n])), G)
            assert isinstance(cert, LowerBoundCert)
            assert cert.level == LEVEL_FAMILY_Z[n]["level"]
            if n > 1:
                assert int(cert.witness.payload) == LEVEL_FAMILY_Z[n]["witness"]
            witness, target = principal_power_witness(ZZ.elem(2), n)
            assert validate_witness(witness, target, G) == n  # upper meets lower
        R = poly_ring(QQ, ["x"])
        x = R.var_elem()
        Gx = koszul(Ideal(R, [x]))
        for n in range(1, 9):
            cert = level_lower_bound(koszul(Ideal(R, [x]).power(n)), Gx)
            assert cert.level == n
            witness, target = principal_power_witness(x, n)
            assert validate_witness(witness, target, Gx) == n


def test_criterion_4_obstruction_ladder_qxy():
    with _Budget(4, 10):
        R = poly_ring(QQ, ["x", "y"])
        I = Ideal(R, [R.var_elem(0), R.var_elem(1)])
        rep = strong_generation_obstruction(I, 6)
        assert rep.verdict == "not-strongly-generated"
        assert [c.level for c in rep.certificates] == [2, 3, 4, 5, 6]
        for cert in rep.certificates:
            n = cert.level
            w = cert.witness
            assert I.power(n - 1).member(w) and not I.power(n).member(w)
            assert str(w) == OBSTRUCT_QXY_WITNESSES[n]


def test_criterion_5_nilpotence_dichotomy_sweep():
    with _Budget(5, 30):
        for m in range(2, 65):
            R = Zmod(m)
            prime_power = bool(is_prime_power_int(m))
            saw_non_nilpotent = False
            for a in range(m):
                I = Ideal(R, [a])
                rep = nilpotence_lemma_check(I, 8)
                if not I.is_proper():
                    assert rep.verdict == "inapplicable-unit-ideal"
                    continue
                assert rep.stabilization_index is not None
                stable = I.power(rep.stabilization_index)
                if prime_power:
                    # connected spectrum: stable power must be (0)
                    assert rep.verdict == "nilpotent-as-required"
                    assert stable.is_zero_ideal()
                elif rep.verdict == "hypothesis-fails-disconnected":
                    saw_non_nilpotent = True
                    assert not stable.is_zero_ideal()
                else:
                    assert rep.verdict == "nilpotent"
            if not prime_power:
                assert saw_non_nilpotent
                # the obstruction pipeline refuses the same rings outright
                p = next(a for a in range(2, m) if m % a == 0)
                with pytest.raises(DisconnectedSpectrumError):
                    strong_generation_obstruction(Ideal(R, [p]), 3)


def test_criterion_6_connected_iff_prime_power():
    with _Budget(6, 10):
        for m in range(2, 1001):
            connected, _ = is_connected_spec(Zmod(m))
            assert connected is bool(is_prime_power_int(m))


def test_criterion_7_snf_kernel():
    with _Budget(7, 30):
        rng = random.Random(707)
        for _ in range(500):
            n = rng.randint(1, 6)
            m = rng.randint(1, 6)
            rows = [[rng.randint(-50, 50) for _ in range(m)] for _ in range(n)]
            A = Matrix(ZZ, rows)
            snf = smith_normal_form(A)
            assert (snf.U @ A) @ snf.V == snf.D
            assert abs(int_det([[int(e) for e in r] for r in snf.U.to_lists()])) == 1
            assert abs(int_det([[int(e) for e in r] for r in snf.V.to_lists()])) == 1
            diag = [int(d) for d in snf.diagonal]
            assert all(d >= 0 for d in diag)
            chain = [d for d in diag if d != 0]
            assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
            assert all(a == 0 for a in diag[len(chain):])  # zeros trail


def _to_oracle(ring, payload):
    return {ring.mono.unpack(m): Fraction(c) for m, c in payload}


def _random_qxy_poly(ring, rng, deg=3, terms=4):
    payload = ring.zero()
    for _ in range(terms):
        exps = [0, 0]
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(2)] += 1
        mono = ring.from_int(rng.randint(-5, 5))
        for i, e in enumerate(exps):
            mono = ring.mul(mono, ring.pow_(ring.var_elem(i).payload, e))
        payload = ring.add(payload, mono)
    return payload


def test_criterion_8_groebner_kernel():
    with _Budget(8, 60):
        R = poly_ring(QQ, ["x", "y"])
        rng = random.Random(808)
        checked = 0
        for _ in range(50):
            gens = [_random_qxy_poly(R, rng) for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if g] or [R.var_elem(0).payload]
            I = Ideal(R, [RingElem(R, g) for g in gens])
            basis = [g.payload for g in I.normal_gens]
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = s_polynomial(R, basis[i], basis[j])
                    assert not normal_form(R, s, basis)
            oracle_gens = [_to_oracle(R, g) for g in gens]
            # one constructed member and one arbitrary query per ideal
            h = _random_qxy_poly(R, rng, deg=2, terms=2)
            member = R.add(R.mul(h, gens[0]), gens[-1])
            q = _random_qxy_poly(R, rng)
            for f, built in ((member, True), (q, False)):
                engine = I.member(RingElem(R, f))
                oracle = linear_membership(_to_oracle(R, f), oracle_gens, 2, 6)
                if built:
                    assert engine and oracle
                if oracle:
                    assert engine  # a linear certificate is a membership proof
                if not engine:
                    assert not oracle
                checked += 1
        assert checked == 100


def test_criterion_9_thick_membership_table():
    with _Budget(9, 5):
        for x, g, expected in THICK_TABLE_Z:
            verdict = thick_member(koszul(Ideal(ZZ, [x])), koszul(Ideal(ZZ, [g])))
            assert verdict.member is expected


OBSTRUCT_SCRIPT = (
    "ring P = poly Q [x,y] grevlex\n"
    "ideal M over P = (x, y)\n"
    "obstruct P M --max 6\n"
)


def test_criterion_10_machine_output_determinism():
    with _Budget(10, 30):
        outputs = []
        for _ in range(2):
            out = io.StringIO()
            code = run_script(OBSTRUCT_SCRIPT, machine=True, out=out)
            assert code == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]
        assert "verdict: not-strongly-generated" in outputs[0]
