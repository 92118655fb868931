"""Buchberger's algorithm with the sugar selection strategy and the
Gebauer-Moeller pair update, plus multivariate division.

Each new basis element passes through one update step that applies
criteria B, M and F (Gebauer-Moeller 1988; Becker-Weispfenning, GTM
141, section 5.5), so pairs are pruned when they are created, never
when they are taken.  Monomial inputs skip the pair loop.

All routines work on MultiPolyRing payloads and are deterministic:
pending S-pairs sit in a heap keyed by (sugar, lcm order key, i, j),
so ties are broken in that order; division always picks the first
listed divisor, keeping its remainder in a dict with a heap of keys,
and the returned basis is the reduced Groebner basis sorted by
descending leading monomial.
"""

import heapq

from . import polys
from .budget import StepCounter
from .errors import TierError


def _require_multi(ring):
    if ring.kind != "polym":
        raise TierError(f"Groebner machinery needs a multivariate ring, got {ring.describe()}")


def normal_form(ring, f, basis, counter=None):
    """Remainder of f under multivariate division by the listed basis.

    Terms still to reduce sit in a dict keyed by order key, with a heap
    of negated keys; a key that cancels is skipped when popped.  A step
    only adds terms below the one it reduces, so no popped key returns.
    """
    F, M = ring.F, ring.mono
    key = M.key
    basis = [g for g in basis if g]
    lms = [g[0][0] for g in basis]
    rem = {key(m): c for m, c in f}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    out = []
    while heap:
        k = -heapq.heappop(heap)
        if k not in rem:
            continue
        e, c = key(k), rem.pop(k)
        i = M.first_divisor(lms, e)
        if i is None:
            out.append((e, c))
            continue
        if counter is not None:
            counter.tick()
        g = basis[i]
        q = F.neg(F.exact_div(c, g[0][1]))
        for m, a in polys.m_term_mul(F, M, M.div(e, lms[i]), q, g[1:]):
            k = key(m)
            if k not in rem:
                rem[k] = a
                heapq.heappush(heap, -k)
            else:
                a = F.add(rem[k], a)
                if F.is_zero(a):
                    del rem[k]
                else:
                    rem[k] = a
    return tuple(out)


def s_polynomial(ring, f, g):
    F, M = ring.F, ring.mono
    ef, cf = f[0]
    eg, cg = g[0]
    lcm = M.lcm(ef, eg)
    tf = polys.m_term_mul(F, M, M.div(lcm, ef), F.inv_unit(cf), f)
    tg = polys.m_term_mul(F, M, M.div(lcm, eg), F.inv_unit(cg), g)
    return polys.m_sub(F, tf, tg, M)


def buchberger(ring, gens, counter=None):
    """Reduced Groebner basis of the listed payloads.

    Monomial inputs need no S-pairs: their minimal set is the reduced
    basis.  Otherwise each generator and each nonzero remainder enters
    through the Gebauer-Moeller update, which prunes pairs when they are
    created, and the pending pairs are taken in sugar order.
    S-polynomials are reduced by every element found so far.
    """
    _require_multi(ring)
    F, M = ring.F, ring.mono
    if counter is None:
        counter = StepCounter("buchberger")
    gens = [polys.m_monic(F, g) for g in gens if g]
    if all(len(g) == 1 for g in gens):
        return reduce_basis(ring, gens, counter)

    G = []  # every element found, in order; S-polynomials reduce by all of it
    sugars = []
    active = []  # indices whose leading monomial no later element divides
    pending = []  # heap of (sugar, M.key(lcm), i, j, lcm)

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
            lk = G[k][0][0]
            lcm = M.lcm(lk, lm)
            deg = M.deg(lcm)
            coprime = deg == M.deg(lk) + M.deg(lm)
            cands.append((deg, not coprime, k, lcm))
        cands.sort()
        kept, kept_lcms = [], []
        for _, not_coprime, k, lcm in cands:
            if M.first_divisor(kept_lcms, lcm) is None:
                kept.append((lcm, not_coprime, k))
                kept_lcms.append(lcm)
        # criterion B: lm(h) divides lcm(i, j) and neither lcm(i, h) nor
        # lcm(j, h) equals it, so the pairs (i, h) and (j, h) cover (i, j)
        pending[:] = [
            p
            for p in pending
            if not M.divides(lm, p[4])
            or M.lcm(G[p[2]][0][0], lm) == p[4]
            or M.lcm(G[p[3]][0][0], lm) == p[4]
        ]
        for lcm, not_coprime, k in kept:
            if not_coprime:
                deg = M.deg(lcm)
                s = max(
                    sugars[k] + deg - M.deg(G[k][0][0]),
                    sugar + deg - M.deg(lm),
                )
                pending.append((s, M.key(lcm), k, new, lcm))
        heapq.heapify(pending)
        active[:] = [k for k in active if not M.divides(lm, G[k][0][0])]
        active.append(new)

    for g in gens:
        update(g, polys.m_total_deg(g, M))
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
    F, M = ring.F, ring.mono
    G = sorted((g for g in G if g), key=lambda g: M.key(g[0][0]))
    # minimal: a monomial order never puts a monomial below one of its
    # divisors, so each leading monomial only needs testing against the
    # survivors before it; on equal leading monomials the earliest stays
    minimal, lms = [], []
    for g in G:
        if M.first_divisor(lms, g[0][0]) is None:
            minimal.append(g)
            lms.append(g[0][0])
    reduced = []
    for idx, g in enumerate(minimal):
        others = [h for k, h in enumerate(minimal) if k != idx]
        r = normal_form(ring, g, others, counter)
        if r:
            reduced.append(polys.m_monic(F, r))
    reduced.sort(key=lambda g: M.key(g[0][0]), reverse=True)
    return tuple(reduced)
