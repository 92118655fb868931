"""Homology modules, annihilators, and homological support."""

import hashlib
import importlib
import io
import random
import time
import zlib

import pytest

from thickgen import snf
from thickgen.cli import run_script
from thickgen.complexes import ChainMap, FreeComplex, cone, koszul, two_term, zero_complex
from thickgen.errors import TierError
from thickgen.homology import (
    FPModule,
    _read_invariants,
    ann_total_homology,
    closed_set,
    fp_direct_sum,
    homology,
    homology_all,
    resolve_primes,
    supph,
)
from thickgen.ideals import Ideal
from thickgen.matrices import Matrix
from thickgen.polys import uni_deg
from thickgen.rings import GF, QQ, ZZ, RingElem, UniQuotRing, Zmod, poly_ring
from thickgen.snf import kernel_basis, smith_normal_form, solve_exact

from oracles import TWO_TERM_H0, minor_gcd_invariants
from random_complexes import random_chain_map, random_unlifted_complex
from test_workload_bytes import load_workloads


def _module_signature(M):
    """(free rank, integer torsion factors) for a module over Z."""
    return (M.free_rank, [int(f) for f in M.factors])


@pytest.mark.parametrize("gens,expected", sorted(TWO_TERM_H0.items()))
def test_two_term_h0_frozen_values(gens, expected):
    H = homology(two_term(ZZ, gens[0]), 0)
    free = expected.count(0)
    torsion = [e for e in expected if e != 0]
    assert _module_signature(H) == (free, torsion)


def test_koszul_pair_h0_over_z():
    # H^0 of K(4,6) is Z/gcd(4,6) = Z/2
    H = homology(koszul(Ideal(ZZ, [4, 6])), 0)
    assert _module_signature(H) == (0, [2])


def test_koszul_over_quotient_ring():
    R = Zmod(8)
    K = koszul(Ideal(R, [2]))
    H0 = homology(K, 0)
    Hm1 = homology(K, -1)
    # H^0 = R/(2); H^-1 = ker(2: Z/8 -> Z/8) = (4) = 2 elements = R/(2) again
    assert H0.ann() == Ideal(R, [2])
    assert Hm1.ann() == Ideal(R, [2])
    assert not H0.is_zero() and not Hm1.is_zero()


def test_integer_invariants_match_minors_oracle():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        M = Matrix(ZZ, rows)
        got = [int(d) for d in smith_normal_form(M).invariants if int(d) != 1]
        want = [abs(v) for v in minor_gcd_invariants(rows) if abs(v) != 1]
        assert got == want


def test_fpmodule_ann_and_render():
    H = homology(two_term(ZZ, 12), 0)
    assert H.ann() == Ideal(ZZ, [12])
    assert "12" in H.render()
    E = homology(two_term(ZZ, 1), 0)
    assert E.is_zero()
    assert E.ann().is_unit_ideal()
    assert E.render() == "0"


def test_fp_direct_sum_restores_divisibility():
    A = homology(two_term(ZZ, 4), 0)
    B = homology(two_term(ZZ, 6), 0)
    S = fp_direct_sum(A, B)
    # Z/4 + Z/6 = Z/2 + Z/12 in invariant-factor form
    assert _module_signature(S) == (0, [2, 12])
    assert S.ann() == Ideal(ZZ, [12])


@pytest.mark.parametrize(
    "ring",
    [ZZ, Zmod(12), poly_ring(GF(5), ["t"]), poly_ring(QQ, ["x"])],
    ids=["Z", "Z/12", "F5[t]", "Q[x]"],
)
def test_fp_direct_sum_is_the_smith_form_of_the_diagonal(ring):
    rng = random.Random(17)
    cover = ring.cover_ring

    def random_module():
        factors = []
        for _ in range(rng.randint(0, 3)):
            f = Ideal(ring, [RingElem(ring, ring.random_element(rng))]).normal_payloads[0]
            if not ring.is_zero(f) and not ring.is_unit(f):
                factors.append(f)
        return FPModule(ring, rng.randint(0, 2), tuple(factors))

    for _ in range(30):
        a, b = random_module(), random_module()
        diag = list(a.factors + b.factors)
        diag += [ring.modulus] * (a.free_rank + b.free_rank)
        k = len(diag)
        D = Matrix(cover, [[diag[i] if i == j else cover.zero() for j in range(k)] for i in range(k)], k, k)
        expected = _read_invariants(ring, k, smith_normal_form(D).diagonal)
        assert fp_direct_sum(a, b) == expected


def test_fp_direct_sum_reads_a_factor_through_its_ideal():
    R = Zmod(12)
    # (10) = (2) in Z/12; the lcm of 10 and 12 would read as the factor 0
    assert fp_direct_sum(FPModule(R, 0, (10,)), FPModule(R, 1, ())) == FPModule(R, 1, (2,))


def test_fp_direct_sum_over_quotient_ring():
    R = Zmod(8)
    A = homology(koszul(Ideal(R, [2])), 0)
    S = fp_direct_sum(A, A)
    assert S.ann() == Ideal(R, [2])
    assert not S.is_zero()


def test_ann_total_homology_of_koszul_contains_ideal():
    I = Ideal(ZZ, [4, 6])
    a = ann_total_homology(koszul(I))
    for g in I.normal_gens:
        assert a.member(g)


def test_ann_total_of_exact_complex_is_unit():
    X = koszul(Ideal(ZZ, [3]))
    C = cone(ChainMap.identity(X))
    assert ann_total_homology(C).is_unit_ideal()


def test_supph_koszul_6_is_v6():
    S = supph(koszul(Ideal(ZZ, [6])))
    assert S.components == (Ideal(ZZ, [6]),)
    primes = resolve_primes(S)
    assert sorted(p.render() for p in primes) == ["(2)", "(3)"]


def test_supph_containment_drives_membership():
    S2 = supph(koszul(Ideal(ZZ, [2])))
    S6 = supph(koszul(Ideal(ZZ, [6])))
    assert S2.contains(S2)
    assert S6.contains(S2)          # V(2) inside V(6)
    assert not S2.contains(S6)      # (3) escapes


def test_support_of_free_module_is_everything():
    # X = R in degree 0: support is V(0), which contains every closed set
    X = FreeComplex(ZZ, {0: 1}, {})
    S = supph(X)
    assert len(S.components) == 1 and S.components[0].is_zero_ideal()
    assert S.contains(supph(koszul(Ideal(ZZ, [30]))))
    assert S.contains(closed_set(Ideal(ZZ, [7])))
    assert resolve_primes(S) is None  # infinitely many primes under V(0)


def test_supph_is_tier_one_only():
    R = poly_ring(QQ, ["x", "y"])
    I = Ideal(R, [R.var_elem(0), R.var_elem(1)])
    with pytest.raises(TierError):
        supph(koszul(I))
    # the zero complex sweeps to no degrees over any ring, but reading
    # one degree still checks the tier first
    Z = zero_complex(R)
    assert homology_all(Z) == {}
    with pytest.raises(TierError):
        homology(Z, 0)
    S = closed_set(I)
    for decide in (lambda: S.contains(S), lambda: resolve_primes(S), S.ideal):
        with pytest.raises(TierError):
            decide()


def test_supph_over_univariate_polys():
    R = poly_ring(QQ, ["x"])
    x = R.var_elem()
    S = supph(koszul(Ideal(R, [x * x])))
    primes = resolve_primes(S)
    assert [p.render() for p in primes] == ["(x)"]


def test_homology_outside_range_is_zero():
    X = two_term(ZZ, 5)
    assert homology(X, 3).is_zero()
    assert homology(X, -7).is_zero()


def test_empty_support_renders():
    C = cone(ChainMap.identity(two_term(ZZ, 9)))
    S = supph(C)
    assert S.is_empty()
    assert S.render() == "empty"
    assert resolve_primes(S) == []


def test_wide_quotient_cone_homology_terminates_quickly():
    # seed replays a cone over Z/12 whose kernel lattice once exploded
    import time

    rng = random.Random(102)
    R = Zmod(12)
    for _ in range(24):
        f = random_chain_map(R, rng)
        C = cone(f)
    t0 = time.monotonic()
    assert ann_total_homology(C).is_zero_ideal()
    assert time.monotonic() - t0 < 5.0


@pytest.mark.parametrize(
    "ring,expected",
    [
        (ZZ, dict(invariant_factors=2, smith_normal_form=0, kernel_basis=0, solve_exact=0)),
        (Zmod(12), dict(invariant_factors=3, smith_normal_form=0, kernel_basis=0, solve_exact=0)),
    ],
    ids=["Z", "Z/12"],
)
def test_one_homology_degree_reads_the_stored_sweep(ring, expected, monkeypatch):
    # one degree reads the sweep of the whole complex: over Z the
    # invariant factors of each of its two differentials, over Z/12
    # those of one matrix [[B, mu*I], [-C, -A]] per degree, three in
    # all; neither needs a lattice basis, an exact solve or a Smith form
    # with transforms, and a second degree of the same complex object
    # reads what the first stored
    expected = dict(expected, hermite_basis=0)
    calls = dict.fromkeys(expected, 0)

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    # the package re-exports a function named homology, so fetch the modules
    for name in calls:
        wrapped = counted(name, getattr(snf, name))
        for module in ("thickgen.snf", "thickgen.homology"):
            owner = importlib.import_module(module)
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, wrapped)
    X = koszul(Ideal(ring, [2, 3]))
    assert homology(X, -1).is_zero()
    assert calls == expected
    for m in (-2, 0, 5):
        homology(X, m)
    assert calls == expected


def _quotient(F, coeffs):
    return UniQuotRing(F, "t", tuple(F.from_int(c) for c in coeffs))


# sha256 of every homology(X, n).render() line over the sources, targets
# and cones of 20 seeded random chain maps per ring, one degree past
# each end included; computed before the kernel lattice became one
# stacked Hermite form, so any change in a module shows here
HOMOLOGY_RENDER_DIGESTS = {
    "Z": (ZZ, "77291cd3c0062ed8be90e57f79a8531804b93667fa03b2bcf1653c1ee8fa8b3f"),
    "Z/8": (Zmod(8), "99a0a61e5e9f3bb67d20ffffa62382e1a5465503fe0a6fa9ddb566046fc3f4c4"),
    "Z/12": (Zmod(12), "ee84649f8ae75146d509dc1dbb67972555c07a41f8f15f4d73eaab613347306d"),
    "Z/360": (Zmod(360), "bea3bddea5344df79939d922489217533f32a6d7a3cf8ec6dbd426dd9d816420"),
    "Q[x]": (
        poly_ring(QQ, ["x"]),
        "ae61e5c9562e4f7533699e2b0e40db491b34d57daf7a99b19780094651c3ce59",
    ),
    "F5[x]": (
        poly_ring(GF(5), ["x"]),
        "2c84398cfd3fb3edaa020c2b4727a68b8c4de17a4c3d279666a99d487fc9417b",
    ),
    "F5[t]/(t^2+1)": (
        _quotient(GF(5), (1, 0, 1)),
        "73e43fad34694c168a0c96a16809869f12b13b4a5bcb9cc0dda75932f1ac89e3",
    ),
    "Q[t]/(t^2-1)": (
        _quotient(QQ, (-1, 0, 1)),
        "d133fbd783e2b9aec9deb1e7d0f85302abdf97257bf8ddf5aef48301f38f0a14",
    ),
    "F3[t]/(t^2)": (
        _quotient(GF(3), (0, 0, 1)),
        "3cb3140c1c9908a7e0d0ef586771ef371a9e823af12dc5a407f950544ad7e264",
    ),
}


@pytest.mark.parametrize("name", sorted(HOMOLOGY_RENDER_DIGESTS))
def test_homology_renders_are_pinned(name):
    ring, digest = HOMOLOGY_RENDER_DIGESTS[name]
    rng = random.Random(zlib.crc32(name.encode()))
    h = hashlib.sha256()
    for _ in range(20):
        f = random_chain_map(ring, rng)
        for X in (f.src, f.dst, cone(f)):
            for n in range(X.lo() - 1, X.hi() + 2):
                h.update(f"{n}:{homology(X, n).render()}\n".encode())
    assert h.hexdigest() == digest


def _lattice_homology(X, n):
    """H^n over R = D/(mu) the long way: a basis K of the kernel lattice
    {v : d^n v in mu*D^m} of the lifted d^n (the first r rows of a basis
    of ker[d^n | mu*I], or ker d^n itself when mu = 0), the relations
    [d^(n-1) | mu*I] written in K coordinates, and their Smith form."""
    R = X.ring
    D, mu = R.cover_ring, R.modulus
    A, B = (Matrix(D, d.rows, d.nrows, d.ncols) for d in map(X.diff, (n, n - 1)))
    (m, r), s = A.shape(), B.ncols
    if mu:
        wide = Matrix.from_blocks(D, m, r + m, [(0, 0, A), (0, r, Matrix.scalar(D, mu, m))])
        wide = kernel_basis(wide)
        K = Matrix(D, wide.rows[:r], r, wide.ncols)
        B = Matrix.from_blocks(D, r, s + r, [(0, 0, B), (0, s, Matrix.scalar(D, mu, r))])
    else:
        K = kernel_basis(A)
    diag = smith_normal_form(solve_exact(K, B)).diagonal if K.ncols and B.ncols else []
    related = [x for x in diag if x and x != mu]
    torsion = tuple(R.project(x) for x in related if not D.is_unit(x))
    return FPModule(R, K.ncols - len(related), torsion)


LATTICE_RINGS = {
    "Z": ZZ,
    "Q": QQ,
    "F7": GF(7),
    "Q[x]": poly_ring(QQ, ["x"]),
    "F5[x]": poly_ring(GF(5), ["x"]),
    "Z/4": Zmod(4),
    "Z/8": Zmod(8),
    "Z/12": Zmod(12),
    "Z/360": Zmod(360),
    "F5[t]/(t^2+1)": _quotient(GF(5), (1, 0, 1)),
    "F3[t]/(t^2)": _quotient(GF(3), (0, 0, 1)),
    "Q[t]/(t^2-1)": _quotient(QQ, (-1, 0, 1)),
}


@pytest.mark.parametrize("name", list(LATTICE_RINGS))
def test_homology_from_invariant_factors_matches_the_kernel_lattice(name):
    # over a quotient ring also on complexes whose lifted d after d is
    # nonzero over D, where B alone would not be a relation matrix
    ring = LATTICE_RINGS[name]
    rng = random.Random(zlib.crc32(b"lattice " + ring.describe().encode()))
    complexes = []
    for _ in range(20):
        f = random_chain_map(ring, rng)
        complexes += [f.src, f.dst, cone(f)]
    if ring.modulus:
        complexes += [random_unlifted_complex(ring, rng) for _ in range(40)]
    for X in complexes:
        assert homology_all(X) == {n: _lattice_homology(X, n) for n in X.degrees()}


def test_homology_of_a_z8_complex_that_does_not_lift():
    # 2 * 4 = 8 is zero in Z/8 but not in Z
    R = Zmod(8)
    X = FreeComplex(R, {-1: 1, 0: 1, 1: 1}, {-1: Matrix(R, [[4]]), 0: Matrix(R, [[2]])})
    assert {n: M.render() for n, M in homology_all(X).items()} == {
        -1: "R/(4)",
        0: "0",
        1: "R/(2)",
    }


def test_quotient_polynomial_cone_homology_matches_euler_characteristic():
    # over Q[t]/(t^6 + 1) the Smith form of this cone's H^-1 once ran
    # for over a minute on matrices of rank at most 3, with Fraction
    # coefficients growing in unreduced transforms
    R = UniQuotRing(QQ, "t", tuple(QQ.from_int(c) for c in (1, 0, 0, 0, 0, 0, 1)))
    rng = random.Random(zlib.crc32(b"Q[t]/(t^6 + 1)"))
    for _ in range(3):
        f = random_chain_map(R, rng)
    C = cone(f)
    # over Q, R has dimension deg(t^6 + 1) and R/(g) has dimension deg g
    deg = uni_deg(R.modulus)
    chi_h = chi_c = 0
    for n in C.degrees():
        H = homology(C, n)
        sign = 1 if n % 2 == 0 else -1
        chi_h += sign * (deg * H.free_rank + sum(uni_deg(g) for g in H.factors))
        chi_c += sign * deg * C.rank(n)
    assert chi_h == chi_c


def test_ann_of_koszul_on_ten_primes_over_z_is_fast():
    # the per-degree kernel lattices and Smith transforms of this input
    # once took 81 s; its differentials' invariant factors take about 1 s
    script = (
        "ring R = Z\nideal I over R = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)\n"
        "koszul I as K\nann K\n"
    )
    out = io.StringIO()
    start = time.perf_counter()
    code = run_script(script, machine=True, out=out)
    elapsed = time.perf_counter() - start
    assert code == 0 and out.getvalue().endswith("ann: (1)\n")
    assert elapsed < 20.0


def test_ann_of_koszul_on_nine_generators_over_z360_is_fast():
    # the per-degree kernel lattices and Smith forms of this input once
    # took 60 s; one invariant factor computation per degree takes 3 s
    rng = random.Random(9)
    gens = ", ".join(str(rng.randint(1, 359)) for _ in range(9))
    script = f"ring R = Zmod 360\nideal I over R = ({gens})\nkoszul I as K\nann K\n"
    out = io.StringIO()
    start = time.perf_counter()
    code = run_script(script, machine=True, out=out)
    elapsed = time.perf_counter() - start
    assert code == 0 and out.getvalue().endswith("ann: (1)\n")
    assert elapsed < 20.0


def test_invariant_factor_passes_keep_entries_small(monkeypatch):
    # the benchmark's 7-generator Koszul complexes, 10 x 10 integer
    # differentials and Koszul complexes over Z/m: the Hermite forms of
    # their invariant factor passes return entries of at most 8 bits.
    # The bound of 16 leaves twice that, and passes that skip the
    # back-reduction reach 17.  No command runs smith_normal_form, so
    # this is the entry-size gate of every homology reading
    homology_module = importlib.import_module("thickgen.homology")
    invariant_factors, hermite_columns = snf.invariant_factors, snf._hermite_columns
    inside, widest = [], [0]

    def traced_factors(A):
        inside.append(A)
        try:
            return invariant_factors(A)
        finally:
            inside.pop()

    def traced_columns(R, nrows, cols):
        fixed, pivot_rows = hermite_columns(R, nrows, cols)
        if inside:
            widest[0] = max([widest[0]] + [abs(x).bit_length() for c in fixed for x in c])
        return fixed, pivot_rows

    monkeypatch.setattr(homology_module, "invariant_factors", traced_factors)
    monkeypatch.setattr(snf, "_hermite_columns", traced_columns)
    scripts = [
        s
        for s in load_workloads()["homology-growth"](1)
        if s.name.startswith(("koszul7-", "square10-", "koszul-mod-"))
    ]
    assert len(scripts) == 14
    for script in scripts:
        assert run_script(script.text, machine=True, out=io.StringIO()) == 0
    assert 0 < widest[0] <= 16


def _count_homology_kernels(monkeypatch):
    """Calls of invariant_factors made by the homology module, counted
    from here on."""
    calls = dict(invariant_factors=0)

    def counted(*args):
        calls["invariant_factors"] += 1
        return snf.invariant_factors(*args)

    monkeypatch.setattr(importlib.import_module("thickgen.homology"), "invariant_factors", counted)
    return calls


# every command that reads homology, on K = K(4, 6) (two differentials,
# three degrees) and G = K(2) (one differential, two degrees)
MEMO_SCRIPT = """\
ideal I over R = (4, 6)
koszul I as K
ideal J over R = (2)
koszul J as G
homology K
ann K
support K
thick-member K G
level-lb K G
homology G
ann G
support G
"""


@pytest.mark.parametrize(
    "ring,expected",
    [
        ("Z", dict(invariant_factors=3)),
        ("Zmod 12", dict(invariant_factors=5)),
    ],
    ids=["Z", "Z/12"],
)
def test_each_complex_computes_its_homology_once_per_script(ring, expected, monkeypatch):
    # over Z once per differential of each complex, over Z/12 once per
    # degree, however many commands read the homology; a second run of
    # the same text builds new complexes and computes again
    calls = _count_homology_kernels(monkeypatch)
    script = f"ring R = {ring}\n" + MEMO_SCRIPT
    assert run_script(script, machine=True, out=io.StringIO()) == 0
    assert calls == expected
    assert run_script(script, machine=True, out=io.StringIO()) == 0
    assert calls == {name: 2 * n for name, n in expected.items()}


def test_equal_complexes_each_compute_their_homology(monkeypatch):
    calls = _count_homology_kernels(monkeypatch)
    X, Y = koszul(Ideal(ZZ, [4, 6])), koszul(Ideal(ZZ, [4, 6]))
    assert X == Y and X is not Y
    assert homology_all(X) == homology_all(Y)
    assert calls["invariant_factors"] == 4


def test_mutating_the_returned_homology_leaves_the_next_call_alone():
    X = koszul(Ideal(ZZ, [4, 6]))
    first = homology_all(X)
    expected = dict(first)
    first[0] = FPModule(ZZ, 7, ())
    del first[-1]
    assert homology_all(X) == expected
    assert ann_total_homology(X).render() == "(2)"


def test_homology_that_raises_stores_nothing():
    # a Tier-2 complex builds, and a refused homology is refused again
    R = poly_ring(QQ, ["x", "y"])
    X = koszul(Ideal(R, [R.var_elem(0)]))
    for _ in range(2):
        with pytest.raises(TierError):
            homology_all(X)
