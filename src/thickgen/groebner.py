"""Buchberger's algorithm with the sugar selection strategy and both
classical pair-skipping criteria, plus multivariate division.

All routines work on MultiPolyRing payloads and are deterministic:
pending S-pairs sit in a heap keyed by (sugar, lcm order key, i, j),
so ties are broken in that order; division always picks the first
listed divisor, and the returned basis is the reduced Groebner basis
sorted by descending leading monomial.
"""

import heapq

from . import polys
from .budget import StepCounter
from .errors import TierError


def _require_multi(ring):
    if ring.kind != "polym":
        raise TierError(f"Groebner machinery needs a multivariate ring, got {ring.describe()}")


def normal_form(ring, f, basis, counter=None):
    """Remainder of f under multivariate division by the listed basis."""
    F, key = ring.F, ring.key
    rem = f
    out = []
    while rem:
        e, c = rem[0]
        hit = None
        for g in basis:
            if g and polys.exp_divides(g[0][0], e):
                hit = g
                break
        if hit is None:
            out.append((e, c))
            rem = rem[1:]
            continue
        if counter is not None:
            counter.tick()
        qe = polys.exp_div(e, hit[0][0])
        qc = F.exact_div(c, hit[0][1])
        rem = polys.m_sub(F, rem, polys.m_term_mul(F, qe, qc, hit), key)
    return tuple(out)


def s_polynomial(ring, f, g):
    F, key = ring.F, ring.key
    ef, cf = f[0]
    eg, cg = g[0]
    lcm = polys.exp_lcm(ef, eg)
    tf = polys.m_term_mul(F, polys.exp_div(lcm, ef), F.inv_unit(cf), f)
    tg = polys.m_term_mul(F, polys.exp_div(lcm, eg), F.inv_unit(cg), g)
    return polys.m_sub(F, tf, tg, key)


def buchberger(ring, gens, counter=None):
    """Reduced Groebner basis of the listed payloads.

    Pairs are processed in sugar order; the product criterion and the
    chain criterion prune useless S-polynomials.
    """
    _require_multi(ring)
    F, key = ring.F, ring.key
    if counter is None:
        counter = StepCounter("buchberger")

    G = []
    sugars = []
    for g in gens:
        if g:
            G.append(polys.m_monic(F, g))
            sugars.append(polys.m_total_deg(g))
    if not G:
        return ()

    def pair_data(i, j):
        lcm = polys.exp_lcm(G[i][0][0], G[j][0][0])
        sugar = max(
            sugars[i] + polys.exp_deg(polys.exp_div(lcm, G[i][0][0])),
            sugars[j] + polys.exp_deg(polys.exp_div(lcm, G[j][0][0])),
        )
        return (sugar, key(lcm), i, j)

    # G and sugars are only appended to, so a pair's tuple never changes
    # once both elements exist: heappop returns the least pending pair
    pending = [pair_data(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    heapq.heapify(pending)
    done = set()

    while pending:
        counter.tick()
        best = heapq.heappop(pending)
        i, j = best[2], best[3]
        done.add((i, j))
        lmi, lmj = G[i][0][0], G[j][0][0]
        lcm = polys.exp_lcm(lmi, lmj)
        if lcm == polys.exp_mul(lmi, lmj):
            continue  # coprime leading monomials reduce to zero
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if not polys.exp_divides(G[k][0][0], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        if skip:
            continue
        s = s_polynomial(ring, G[i], G[j])
        h = normal_form(ring, s, G, counter)
        if not h:
            continue
        h = polys.m_monic(F, h)
        G.append(h)
        sugars.append(best[0])
        new = len(G) - 1
        for k in range(new):
            heapq.heappush(pending, pair_data(k, new))

    return reduce_basis(ring, G, counter)


def reduce_basis(ring, G, counter=None):
    """Minimalize and inter-reduce; canonical output order is descending
    leading monomial."""
    F, key = ring.F, ring.key
    G = sorted((g for g in G if g), key=lambda g: key(g[0][0]))
    # minimal: drop any g whose leading monomial another survivor divides;
    # on equal leading monomials keep the earliest
    minimal = []
    for idx, g in enumerate(G):
        lm = g[0][0]
        redundant = False
        for k, h in enumerate(G):
            if k == idx:
                continue
            if polys.exp_divides(h[0][0], lm) and (h[0][0] != lm or k < idx):
                redundant = True
                break
        if redundant:
            continue
        minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = [h for k, h in enumerate(minimal) if k != idx]
        r = normal_form(ring, g, others, counter)
        if r:
            reduced.append(polys.m_monic(F, r))
    reduced.sort(key=lambda g: key(g[0][0]), reverse=True)
    return tuple(reduced)
