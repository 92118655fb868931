"""Buchberger's algorithm with the sugar selection strategy and the
Gebauer-Moeller pair update, plus multivariate division.

Each new basis element passes through one update step that applies
criteria B, M and F (Gebauer-Moeller 1988; Becker-Weispfenning, GTM
141, section 5.5), so pairs are pruned when they are created, never
when they are taken.  Monomial inputs skip the pair loop.

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

    Monomial inputs need no S-pairs: their minimal set is the reduced
    basis.  Otherwise each generator and each nonzero remainder enters
    through the Gebauer-Moeller update, which prunes pairs when they are
    created, and the pending pairs are taken in sugar order.
    S-polynomials are reduced by every element found so far.
    """
    _require_multi(ring)
    F, key = ring.F, ring.key
    if counter is None:
        counter = StepCounter("buchberger")
    gens = [polys.m_monic(F, g) for g in gens if g]
    if all(len(g) == 1 for g in gens):
        return reduce_basis(ring, gens, counter)

    G = []  # every element found, in order; S-polynomials reduce by all of it
    sugars = []
    active = []  # indices whose leading monomial no later element divides
    pending = []  # heap of (sugar, key(lcm), i, j, lcm)

    def update(h, sugar):
        new, lm = len(G), h[0][0]
        G.append(h)
        sugars.append(sugar)
        # criteria M and F: keep the first new pair of each minimal lcm.
        # A proper divisor of an lcm has lower degree, so sorting by
        # degree puts it first; among equal lcms a coprime pair sorts
        # first, prunes the rest, and is dropped below, since coprime
        # leading monomials make the S-polynomial reduce to zero.
        cands = []
        for k in active:
            lcm = polys.exp_lcm(G[k][0][0], lm)
            coprime = lcm == polys.exp_mul(G[k][0][0], lm)
            cands.append((polys.exp_deg(lcm), not coprime, k, lcm))
        cands.sort()
        kept = []
        for _, not_coprime, k, lcm in cands:
            if not any(polys.exp_divides(other, lcm) for other, _, _ in kept):
                kept.append((lcm, not_coprime, k))
        # criterion B: lm(h) divides lcm(i, j) and neither lcm(i, h) nor
        # lcm(j, h) equals it, so the pairs (i, h) and (j, h) cover (i, j)
        pending[:] = [
            p
            for p in pending
            if not polys.exp_divides(lm, p[4])
            or polys.exp_lcm(G[p[2]][0][0], lm) == p[4]
            or polys.exp_lcm(G[p[3]][0][0], lm) == p[4]
        ]
        for lcm, not_coprime, k in kept:
            if not_coprime:
                deg = polys.exp_deg(lcm)
                s = max(
                    sugars[k] + deg - polys.exp_deg(G[k][0][0]),
                    sugar + deg - polys.exp_deg(lm),
                )
                pending.append((s, key(lcm), k, new, lcm))
        heapq.heapify(pending)
        active[:] = [k for k in active if not polys.exp_divides(lm, G[k][0][0])]
        active.append(new)

    for g in gens:
        update(g, polys.m_total_deg(g))
    while pending:
        counter.tick()
        sugar, _, i, j, _ = heapq.heappop(pending)
        h = normal_form(ring, s_polynomial(ring, G[i], G[j]), G, counter)
        if h:
            update(polys.m_monic(F, h), sugar)

    return reduce_basis(ring, [G[k] for k in active], counter)


def reduce_basis(ring, G, counter=None):
    """Minimalize and inter-reduce; canonical output order is descending
    leading monomial."""
    F, key = ring.F, ring.key
    G = sorted((g for g in G if g), key=lambda g: key(g[0][0]))
    # minimal: a monomial order never puts a monomial below one of its
    # divisors, so each leading monomial only needs testing against the
    # survivors before it; on equal leading monomials the earliest stays
    minimal = []
    for g in G:
        if not any(polys.exp_divides(h[0][0], g[0][0]) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = [h for k, h in enumerate(minimal) if k != idx]
        r = normal_form(ring, g, others, counter)
        if r:
            reduced.append(polys.m_monic(F, r))
    reduced.sort(key=lambda g: key(g[0][0]), reverse=True)
    return tuple(reduced)
