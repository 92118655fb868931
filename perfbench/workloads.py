"""Seeded script generators for the three workloads.

Each generator returns a list of Script objects: the text handed to
`thickgen.cli.run_script` and, beside it, what the benchmark knows about
the answer from how the input was built.  The same seed always gives
the same scripts.  To write a batch out as .tg files:

    python3 perfbench/workloads.py --workload obstruct-ladder --seed 1 --out DIR
"""

import argparse
import math
import os
import random
import sys
from dataclasses import dataclass, field

import arith


@dataclass
class Script:
    name: str
    text: str
    # one entry per command, in order: (kind, facts) for checks.py
    expect: list = field(default_factory=list)
    # the engine is known to answer this script wrongly on every run
    known_fault: str = ""


# ------------------------------------------------------ shared helpers


def _factored_poly(rng, ring, lin, quad, nfactors):
    """A random monic polynomial as {factor: exponent}."""
    out = {}
    for _ in range(nfactors):
        f = rng.choice(lin + quad) if quad and rng.random() < 0.3 else rng.choice(lin)
        out[f] = out.get(f, 0) + 1
    return out


def _unit(rng, ring):
    if isinstance(ring, arith.UPoly):
        if ring.p == 0:
            return rng.choice([1, -1, 2, -3])
        return rng.randrange(1, ring.p)
    return rng.choice([1, -1])


def _poly_elem(rng, ring, lin, quad, nfactors, unit=True):
    fac = _factored_poly(rng, ring, lin, quad, nfactors)
    u = _unit(rng, ring) if unit else 1
    return arith.expand(ring, fac, u), fac


# ------------------------------------------------------ obstruct-ladder

OBSTRUCT_FIELDS = (0, 32003)


def _multi_case(rng, family, i):
    """(variables, weights, generator dicts, max) for the i-th script of
    one Tier-2 family.  Exponents and --max follow a fixed cycle, so the
    Groebner work per family hardly depends on the seed; the seed draws
    the coefficient c."""
    c = rng.choice([1, 2, 3, 5, -1, -2, -3, -5])
    if family == "monomial2":
        a, b, max_n = ((1, 2, 6), (2, 3, 5), (3, 2, 5), (1, 4, 6), (2, 2, 5), (3, 4, 4))[i % 6]
        return ("x", "y"), (1, 1), [{(a, 0): 1}, {(0, b): 1}], max_n
    if family == "linear2":
        return ("x", "y"), (1, 1), [{(1, 0): 1}, {(0, 1): 1}], (5, 6, 7, 6)[i % 4]
    if family == "monomial3gens":
        a, b = ((2, 2), (3, 2), (2, 3))[i % 3]
        return ("x", "y"), (1, 1), [{(a, 0): 1}, {(1, 1): 1}, {(0, b): 1}], 3
    if family == "homogeneous2":
        return ("x", "y"), (1, 1), [{(2, 0): 1, (0, 2): c}, {(1, 1): 1}], 3
    if family == "weighted2":
        # x^2 + c*y and x*y are homogeneous for deg x = 1, deg y = 2
        return ("x", "y"), (1, 2), [{(2, 0): 1, (0, 1): c}, {(1, 1): 1}], (3, 4)[i % 2]
    if family == "weighted2cubic":
        # x^3 + c*y^2 and x*y: deg x = 2, deg y = 3
        return ("x", "y"), (2, 3), [{(3, 0): 1, (0, 2): c}, {(1, 1): 1}], 3
    if family == "homogeneous3":
        return (
            ("x", "y", "z"), (1, 1, 1),
            [{(2, 0, 0): 1, (0, 1, 1): c}, {(0, 0, 2): 1}], (3, 4)[i % 2],
        )
    if family == "monomial3":
        return ("x", "y", "z"), (1, 1, 1), [{(1, 1, 0): 1}, {(0, 0, 2): 1}], 4
    if family == "weighted3":
        return (
            ("x", "y", "z"), (1, 2, 1),
            [{(2, 0, 0): 1, (0, 1, 0): c}, {(0, 0, 2): 1}], 3,
        )
    if family == "edges3":
        return (
            ("x", "y", "z"), (1, 1, 1),
            [{(1, 1, 0): 1}, {(0, 1, 1): 1}, {(1, 0, 1): 1}], 3,
        )
    raise ValueError(family)


# family -> scripts per batch; the mix is fixed so that every seed does
# about the same amount of Groebner work
OBSTRUCT_MIX = (
    ("monomial2", 6),
    ("linear2", 4),
    ("monomial3gens", 3),
    ("homogeneous2", 4),
    ("weighted2", 4),
    ("weighted2cubic", 2),
    ("homogeneous3", 2),
    ("monomial3", 1),
    ("weighted3", 1),
    ("edges3", 1),
)


def obstruct_ladder(seed):
    rng = random.Random(seed)
    out = []
    for family, count in OBSTRUCT_MIX:
        for i in range(count):
            names, weights, gens, max_n = _multi_case(rng, family, i)
            # field and order alternate, so each family meets both
            p = OBSTRUCT_FIELDS[(i + count) % 2]
            order = ("grevlex", "lex")[(i // 2) % 2]
            if p:
                gens = [{e: c % p for e, c in g.items()} for g in gens]
            field_name = "Q" if p == 0 else f"F{p}"
            lits = ", ".join(arith.render_multi(g, names, p) for g in gens)
            text = (
                f"ring P = poly {field_name} [{','.join(names)}] {order}\n"
                f"ideal I over P = ({lits})\n"
                f"obstruct P I --max {max_n}\n"
            )
            facts = dict(names=names, weights=weights, gens=gens, p=p, max=max_n)
            out.append(Script(f"{family}-{i}", text, [("obstruct-multi", facts)]))
    # Tier-1 minority: principal ideals of Z and Q[x], nilpotent ideals of Z/p^k
    for i in range(4):
        a = rng.randint(2, 30)
        max_n = (3, 5, 6, 8)[i]
        text = f"ring R = Z\nideal I over R = ({a})\nobstruct R I --max {max_n}\n"
        facts = dict(ring=arith.IntRing(), gen=a, max=max_n)
        out.append(Script(f"z-obstruct-{i}", text, [("obstruct-principal", facts)]))
    for i in range(2):
        ring = arith.UPoly(0)
        lin, quad = arith.irreducibles(ring, 1)
        f, _ = _poly_elem(rng, ring, lin, quad, 2)
        max_n = 4
        text = (
            f"ring R = {ring.dsl}\nideal I over R = ({ring.render(f)})\n"
            f"obstruct R I --max {max_n}\n"
        )
        facts = dict(ring=ring, gen=f, max=max_n)
        out.append(Script(f"qx-obstruct-{i}", text, [("obstruct-principal", facts)]))
    for i in range(4):
        p = rng.choice([2, 3, 5, 7])
        k = rng.randint(2, 6)
        j = rng.randint(1, k - 1)
        unit = rng.choice([u for u in range(1, p * 3) if u % p])
        m = p**k
        index = -(-k // j)  # least t with j*t >= k
        gen = (p**j * unit) % m
        if i % 2 == 0:
            # the ladder reaches the nilpotency index, so it must degenerate
            max_n = rng.randint(max(2, index), index + 3)
            text = f"ring A = Zmod {m}\nideal N over A = ({gen})\nobstruct A N --max {max_n}\n"
            kind = "obstruct-nilpotent"
        else:
            max_n = rng.randint(1, 8)
            text = f"ring A = Zmod {m}\nideal N over A = ({gen})\nnilpotence A N --max {max_n}\n"
            kind = "nilpotence"
        facts = dict(m=m, p=p, j=j, index=index, max=max_n)
        out.append(Script(f"zpk-{kind}-{i}", text, [(kind, facts)]))
    # fixed input, the same for every seed: the ladder stops below the
    # nilpotency index (5) of (2) in Z/32 and the engine then reports
    # not-strongly-generated instead of the degenerate verdict
    out.append(
        Script(
            "zpk-obstruct-short-ladder",
            "ring A = Zmod 32\nideal N over A = (2)\nobstruct A N --max 3\n",
            [("obstruct-nilpotent", dict(m=32, p=2, j=1, index=5, max=3))],
            known_fault="obstruct on a nilpotent ideal below its nilpotency index",
        )
    )
    rng.shuffle(out)
    return out


# ------------------------------------------------------ Tier-1 pieces


def _koszul_case(rng, ring_kind, k, p=0):
    """Generators for a Koszul complex with a known gcd structure.

    Returns (ring, gens as ring values, facts) where facts carries what
    the checks need: the gcd d (factored for polynomial rings)."""
    if ring_kind == "Z":
        ring = arith.IntRing()
        d = rng.choice([2, 2, 3, 4, 6, 10, 12])
        gens = [d * rng.randint(1, 12) * rng.choice([1, -1]) for _ in range(k)]
        return ring, gens, dict(kind="Z", gens=gens)
    if ring_kind == "Zmod":
        m = rng.choice([12, 18, 20, 24, 30, 36, 45, 60, 72, 100])
        ring = arith.ModRing(m)
        divisors = [c for c in range(2, m) if m % c == 0]
        d = rng.choice(divisors)
        gens = []
        while len(gens) < k:
            g = (d * rng.randint(1, m)) % m
            if g:
                gens.append(g)
        return ring, gens, dict(kind="Zmod", m=m, gens=gens)
    ring = arith.UPoly(p)
    lin, quad = arith.irreducibles(ring, 2)
    common = _factored_poly(rng, ring, lin, quad, 1)
    gens, facs = [], []
    for j in range(k):
        extra = _factored_poly(rng, ring, lin, quad, 1 + j % 2)
        fac = dict(common)
        for f, e in extra.items():
            fac[f] = fac.get(f, 0) + e
        u = _unit(rng, ring)
        gens.append(arith.expand(ring, fac, u))
        facs.append(fac)
    return ring, gens, dict(kind="poly", p=ring.p, factors=facs)


def _principal(rng, ring, facts):
    """A non-unit nonzero principal generator g for thick-member,
    level-lb and witness-principal, in canonical form (positive, monic)
    so that koszul((g)) matches the engine's own normalization."""
    if facts["kind"] == "Z":
        g = rng.choice([2, 3, 4, 6, 8, 9, 10, 12, 30])
        return g, dict(kind="Z", value=g)
    if facts["kind"] == "Zmod":
        m = facts["m"]
        g = rng.choice([c for c in range(2, m) if m % c == 0])
        return g, dict(kind="Zmod", m=m, value=g)
    lin, quad = arith.irreducibles(ring, 2)
    fac = _factored_poly(rng, ring, lin, quad, rng.randint(1, 2))
    return arith.expand(ring, fac), dict(kind="poly", p=ring.p, factors=[fac])


# -------------------------------------------------- hand-written complexes


def _elementary_pair(rng, ring, n, ops, coef):
    """A unimodular n x n matrix P and its inverse, as a product of ops
    random elementary row operations."""
    one, zero = ring.one(), ring.zero()
    P = [[one if i == j else zero for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    if n < 2:
        return P, Pinv
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = coef(rng)
        # P <- E P with E = I + c e_ij ; Pinv <- Pinv E^-1
        P[i] = [ring.add(a, ring.mul(c, b)) for a, b in zip(P[i], P[j])]
        for row in Pinv:
            row[j] = ring.sub(row[j], ring.mul(c, row[i]))
    return P, Pinv


def _matmul(ring, A, B, inner):
    return [
        [
            _dot(ring, [A[i][k] for k in range(inner)], [B[k][j] for k in range(inner)])
            for j in range(len(B[0]) if B else 0)
        ]
        for i in range(len(A))
    ]


def _dot(ring, u, v):
    acc = ring.zero()
    for a, b in zip(u, v):
        acc = ring.add(acc, ring.mul(a, b))
    return acc


def handwritten_complex(rng, ring, lo, shape, entries, ops, coef):
    """Complex over ring in degrees lo..lo+len(shape)-1.

    shape[i] = (s, z): s basis vectors of degree lo+i map onto s basis
    vectors of the next degree through the diagonal entries[i], z more
    are cycles that are no boundaries.  Every degree is then conjugated
    by a random unimodular matrix, so the homology is known by
    construction.  Returns the DSL literal and, per degree n, the rank
    and the pieces of H^n: (entry, "coker") for R/(entry) from the
    incoming map, (entry, "ker") for the kernel of the outgoing one
    (nonzero only over Z/m), and the free rank."""
    degs = [lo + i for i in range(len(shape))]
    s_in = {lo: 0}
    ranks = {}
    for i, n in enumerate(degs):
        s, z = shape[i]
        s_in[n + 1] = s
        ranks[n] = s_in[n] + s + z
    # standard basis order in degree n: [targets from n-1, sources, free]
    std = {}
    for i, n in enumerate(degs[:-1]):
        rows, cols = ranks[n + 1], ranks[n]
        M = [[ring.zero() for _ in range(cols)] for _ in range(rows)]
        for t, e in enumerate(entries[i]):
            M[t][s_in[n] + t] = e
        std[n] = M
    P = {n: _elementary_pair(rng, ring, ranks[n], ops, coef) for n in degs}
    parts = [f"deg {degs[0]}..{degs[-1]}"]
    pinned = set()
    for n in degs[:-1]:
        if ranks[n] and ranks[n + 1]:
            D = _matmul(ring, P[n + 1][0], std[n], ranks[n + 1])
            D = _matmul(ring, D, P[n][1], ranks[n])
            body = ", ".join("[" + ", ".join(ring.render(x) for x in row) + "]" for row in D)
            parts.append(f"d({n}) = [{body}]")
            pinned.update((n, n + 1))
    for n in degs:
        if ranks[n] and n not in pinned:
            parts.append(f"rank({n}) = {ranks[n]}")
    homology = {}
    for i, n in enumerate(degs):
        cyc = []
        if i > 0:
            cyc += [(e, "coker") for e in entries[i - 1]]
        if i < len(degs) - 1:
            cyc += [(e, "ker") for e in entries[i]]
        homology[n] = dict(pieces=cyc, free=shape[i][1], rank=ranks[n])
    return "{ " + " ; ".join(parts) + " }", homology


def _chain(rng, ring, count, kind):
    """Diagonal entries for one differential: a divisibility chain over Z
    and over F_p[x] (there as (value, factorization) pairs), nonzero
    residues over Z/m."""
    out = []
    if kind == "Z":
        acc = rng.choice([1, 1, 2, 3])
        for _ in range(count):
            acc *= rng.choice([1, 2, 2, 3, 5])
            out.append(acc)
        return out
    if kind == "Zmod":
        for _ in range(count):
            out.append(rng.randrange(1, ring.m))
        return out
    lin, quad = arith.irreducibles(ring, 2)
    fac = {}
    for _ in range(count):
        for f, e in _factored_poly(rng, ring, lin, quad, rng.randint(0, 1)).items():
            fac[f] = fac.get(f, 0) + e
        out.append((arith.expand(ring, fac), dict(fac)))
    return out


def _handwritten_case(rng, ring_kind, max_rank, ndeg, ops, p):
    if ring_kind == "Z":
        ring = arith.IntRing()
        coef = lambda r: r.choice([1, -1, 2, -2])
    elif ring_kind == "Zmod":
        ring = arith.ModRing(rng.choice([12, 18, 24, 30, 36, 60]))
        coef = lambda r: r.randrange(1, ring.m)
    else:
        ring = arith.UPoly(p)
        coef = lambda r: ring.add(ring.const(r.randrange(ring.p)), ring.mul(ring.const(r.randrange(2)), ring.x()))
    lo = rng.randint(-2, 0)
    while True:
        shape = []
        s_prev = 0
        for i in range(ndeg):
            room = max_rank - s_prev
            s = rng.randint(0, min(2, room)) if i < ndeg - 1 else 0
            z = rng.randint(0, min(1, room - s))
            shape.append((s, z))
            s_prev = s
        if any(s for s, _ in shape):
            break
    entries = []
    for s, _ in shape:
        entries.append(_chain(rng, ring, s, ring_kind) if s else [])
    values = [[e[0] if isinstance(e, tuple) else e for e in row] for row in entries]
    lit, hom = handwritten_complex(rng, ring, lo, shape, values, ops, coef)
    # keep the factorizations of polynomial entries for the checks
    if ring_kind == "poly":
        for n, h in hom.items():
            h["pieces"] = [
                (next(e for row in entries for e in row if e[0] == v), role)
                for v, role in h["pieces"]
            ]
    facts = dict(kind=ring_kind, homology=hom, m=getattr(ring, "m", None), p=getattr(ring, "p", None))
    return ring, lit, facts


# ------------------------------------------------------ homology-small

SMALL_RINGS = ("Z", "Zmod", "poly")
POLY_FIELDS = (0, 2, 3, 5, 7)


def _tier1_commands(rng, ring, cname, facts, nonzero, lines, expect):
    """Append homology, ann and support and, when the homology is
    nonzero (level-lb needs that), the comparisons with koszul((g))."""
    for cmd in ("homology", "ann", "support"):
        lines.append(f"{cmd} {cname}")
        expect.append((cmd, facts))
    if nonzero:
        g, gfacts = _principal(rng, ring, facts)
        lines.append(f"ideal J over R = ({ring.render(g)})")
        lines.append("koszul J as G")
        expect.append(("koszul", dict(gfacts, gens=[g]) if gfacts["kind"] != "poly" else dict(gfacts)))
        for cmd in ("thick-member", "level-lb"):
            lines.append(f"{cmd} {cname} G")
            expect.append((cmd, dict(target=facts, generator=gfacts)))


def homology_small(seed):
    rng = random.Random(seed)
    out = []
    for i in range(60):
        kind = SMALL_RINGS[i % 3]
        # Z/m stops at four generators: with five the engine often runs
        # for minutes (see the FOUND lines in CHANGES.md)
        k = 1 + (i // 3) % {"Z": 5, "Zmod": 4, "poly": 3}[kind]
        ring, gens, facts = _koszul_case(rng, kind, k, p=POLY_FIELDS[(i // 3) % 5])
        lines = [f"ring R = {ring.dsl}", f"ideal I over R = ({', '.join(ring.render(g) for g in gens)})", "koszul I as K"]
        expect = [("koszul", facts)]
        # every generator list shares a non-unit factor: the homology is nonzero
        _tier1_commands(rng, ring, "K", facts, True, lines, expect)
        out.append(Script(f"koszul-{kind}-{i}", "\n".join(lines) + "\n", expect))
    for i in range(45):
        kind = SMALL_RINGS[i % 3]
        ring, lit, facts = _handwritten_case(
            rng, kind, 4, ndeg=2 + (i // 3) % 2, ops=1 + i % 3, p=POLY_FIELDS[1 + (i // 3) % 4]
        )
        lines = [f"ring R = {ring.dsl}", f"complex C over R = {lit}"]
        expect = []
        nonzero = _handwritten_nonzero(facts)
        _tier1_commands(rng, ring, "C", facts, nonzero, lines, expect)
        out.append(Script(f"complex-{kind}-{i}", "\n".join(lines) + "\n", expect))
    for i in range(20):
        kind = ("Z", "poly")[i % 2]
        if kind == "Z":
            ring = arith.IntRing()
            x = rng.choice([2, 3, 5, 6, 7, 10])
            n = 2 + (i // 2) % 4
            xf = dict(kind="Z", value=x)
        else:
            ring = arith.UPoly(POLY_FIELDS[(i // 2) % 5])
            lin, quad = arith.irreducibles(ring, 2)
            fac = _factored_poly(rng, ring, lin, quad, 1)
            x = arith.expand(ring, fac)
            n = 2 + (i // 2) % 3
            xf = dict(kind="poly", p=ring.p, factors=[fac])
        xn = ring.pow(x, n) if kind == "poly" else x**n
        text = (
            f"ring R = {ring.dsl}\n"
            f"witness-principal R ({ring.render(x)}) {n} as W\n"
            f"ideal T over R = ({ring.render(xn)})\nkoszul T as X\n"
            f"ideal J over R = ({ring.render(x)})\nkoszul J as G\n"
            "validate-witness W X G\n"
        )
        expect = [
            ("witness-principal", dict(ring=ring, x=x, n=n)),
            ("koszul", dict(xf, gens=[xn]) if kind == "Z" else dict(kind="poly", p=ring.p, factors=[{f: e * n for f, e in xf["factors"][0].items()}])),
            ("koszul", dict(xf, gens=[x]) if kind == "Z" else xf),
            ("validate-witness", dict(n=n)),
        ]
        out.append(Script(f"witness-{kind}-{i}", text, expect))
    for i in range(25):
        choice = i % 5
        if choice < 3:
            m = rng.randint(2, 200)
            text = f"ring R = Zmod {m}\nspec R\nidempotents R\n"
            facts = dict(kind="Zmod", m=m)
        elif choice == 3:
            text = "ring R = Z\nspec R\nidempotents R\n"
            facts = dict(kind="Z")
        else:
            p = rng.choice([0, 2, 3, 5, 7])
            ring = arith.UPoly(p)
            text = f"ring R = {ring.dsl}\nspec R\nidempotents R\n"
            facts = dict(kind="poly", p=p)
        out.append(Script(f"spec-{i}", text, [("spec", facts), ("idempotents", facts)]))
    rng.shuffle(out)
    return out


def _handwritten_nonzero(facts):
    m = facts["m"]
    for h in facts["homology"].values():
        if h["free"]:
            return True
        for e, role in h["pieces"]:
            if facts["kind"] == "Z" and abs(e) != 1:
                return True
            if facts["kind"] == "Zmod" and math.gcd(e, m) != 1:
                return True
            if facts["kind"] == "poly" and e[1]:
                return True
    return False


# ------------------------------------------------------ homology-growth


def _triangular(rng, n, lower, span, density):
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (i > j if lower else i < j) and rng.random() < density:
                M[i][j] = rng.randint(-span, span)
    return M


def square_case(build_seed, n):
    """Integer complex R^n -> R^n in degrees -1..0 whose differential is
    L1 U1 D L2 U2: D a diagonal divisibility chain, the L and U unit
    triangular with small entries.  H(-1) = 0 and H(0) = coker D."""
    rng = random.Random(build_seed)
    ring = arith.IntRing()
    entries, acc = [], 1
    for _ in range(n):
        acc *= rng.choice([1, 1, 1, 1, 2, 3])
        entries.append(acc)
    D = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    left = _matmul(ring, _triangular(rng, n, True, 2, 0.4), _triangular(rng, n, False, 2, 0.4), n)
    right = _matmul(ring, _triangular(rng, n, True, 2, 0.4), _triangular(rng, n, False, 2, 0.4), n)
    A = _matmul(ring, _matmul(ring, left, D, n), right, n)
    body = ", ".join("[" + ", ".join(map(str, row)) + "]" for row in A)
    lit = "{ deg -1..0 ; d(-1) = [" + body + "] }"
    hom = {
        -1: dict(pieces=[(e, "ker") for e in entries], free=0, rank=n),
        0: dict(pieces=[(e, "coker") for e in entries], free=0, rank=n),
    }
    return lit, dict(kind="Z", homology=hom, m=None, p=None)


# The growth inputs are fixed and the seed only orders them.  The
# engine's Smith form time on seeded inputs of one shape spans three
# orders of magnitude (10x10 square_case builds: 0.01 s to well over
# 2 s), so seeded draws would make a batch's cost depend on its seed.
# Each input below was timed once when the workload was defined; the
# comment gives that time on a 2-vCPU virtual machine.
GROWTH_KOSZUL_Z = (
    (6, 8, 4, 8, 16, 12, 18),  # 0.88 s
    (60, 12, 30, 15, 51, 48, 51),  # 0.22 s
    (20, 160, 100, 90, 200, 50, 120),  # 0.11 s
    (40, 90, 150, 210, 250, 300),  # 0.46 s
    (150, 114, 120, 102, 48, 48),  # 0.33 s
    (36, 156, 162, 42, 102, 162),  # 0.06 s
    (56, 14, 46, 36, 58, 30),  # 0.04 s
    (230, 180, 30, 40, 270, 260),  # 0.04 s
)
GROWTH_KOSZUL_MOD = (
    (72, (12, 36, 60, 48)),
    (60, (6, 18, 42, 24)),
    (100, (10, 30, 70, 90)),
    (36, (6, 30, 18, 24)),
    (90, (15, 45, 75, 30)),
    (84, (14, 28, 42, 70)),
)
# (size, build seed) for square_case
GROWTH_SQUARES = (
    (10, 12),  # 1.0 s
    (10, 8),  # 0.60 s
    (10, 20),  # 0.33 s
    (10, 2),  # 0.14 s
    (10, 19),  # 0.06 s
    (9, 9),  # 0.74 s
    (9, 5),  # 0.35 s
    (9, 14),  # 0.19 s
    (9, 2),  # 0.06 s
    (8, 7),  # 0.04 s
    (8, 14),  # 0.04 s
    (8, 11),  # 0.03 s
)


def homology_growth(seed):
    out = []
    for i, gens in enumerate(GROWTH_KOSZUL_Z):
        facts = dict(kind="Z", gens=list(gens))
        text = f"ring R = Z\nideal I over R = ({', '.join(map(str, gens))})\nkoszul I as K\nann K\n"
        out.append(Script(f"koszul{len(gens)}-{i}", text, [("koszul", facts), ("ann", facts)]))
    for i, (m, gens) in enumerate(GROWTH_KOSZUL_MOD):
        facts = dict(kind="Zmod", m=m, gens=list(gens))
        text = (
            f"ring R = Zmod {m}\nideal I over R = ({', '.join(map(str, gens))})\n"
            "koszul I as K\nhomology K\nann K\n"
        )
        out.append(Script(f"koszul-mod-{i}", text, [("koszul", facts), ("homology", facts), ("ann", facts)]))
    for n, build_seed in GROWTH_SQUARES:
        lit, facts = square_case(build_seed, n)
        text = f"ring R = Z\ncomplex C over R = {lit}\nhomology C\nann C\n"
        out.append(Script(f"square{n}-{build_seed}", text, [("homology", facts), ("ann", facts)]))
    random.Random(seed).shuffle(out)
    return out


WORKLOADS = {
    "obstruct-ladder": obstruct_ladder,
    "homology-small": homology_small,
    "homology-growth": homology_growth,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description="write a workload's scripts as .tg files")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write into")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for i, s in enumerate(WORKLOADS[args.workload](args.seed)):
        with open(os.path.join(args.out, f"{i:03d}-{s.name}.tg"), "w", encoding="utf-8") as fh:
            fh.write(s.text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
