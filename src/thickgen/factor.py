"""Factorization utilities: trial division for integers, squarefree
decomposition plus trial division for univariate polynomials.

Integer routines are bounded trial division and reject oversized
inputs explicitly.  Polynomial factorization over Fp is complete
(budget-guarded enumeration of low-degree divisors); over Q it finds
linear factors exactly and certifies irreducibility up to degree 3,
reporting complete=False when a degree >= 4 remainder survives.
"""

import itertools
import math

from . import polys
from .budget import StepCounter
from .errors import FactorizationIncompleteError

INT_FACTOR_BOUND = 10**12


def is_prime(n):
    """Primality by trial division, refused past INT_FACTOR_BOUND."""
    if n > INT_FACTOR_BOUND:
        raise FactorizationIncompleteError(
            f"{n} exceeds the primality bound {INT_FACTOR_BOUND}"
        )
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def factor_integer(n, bound=INT_FACTOR_BOUND):
    """Sorted [(prime, exponent), ...] for n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"factor_integer needs n >= 1, got {n}")
    if n > bound:
        raise FactorizationIncompleteError(f"{n} exceeds the factorization bound {bound}")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


# ------------------------------------------------------- univariate polys


def uni_pth_root(F, f, p):
    """p-th root of f over the prime field Fp; exponents must be
    multiples of p (Frobenius fixes the coefficients)."""
    out = []
    for i, c in enumerate(f):
        if i % p == 0:
            out.append(c)
        elif not F.is_zero(c):
            raise ValueError("polynomial is not a p-th power")
    return polys.uni_trim(out, F)


def uni_squarefree(F, f):
    """Squarefree decomposition of monic nonconstant f.

    Returns [(g, m), ...] with f = prod g^m, the g monic squarefree and
    pairwise coprime, sorted by multiplicity.
    """
    p = F.p if F.kind == "Fp" else 0
    result = {}
    # (polynomial, multiplier) pairs still to split; a p-th root found
    # along the way goes back on the list with its multiplier times p
    todo = [(f, 1)]
    while todo:
        f, scale = todo.pop()
        df = polys.uni_derivative(F, f)
        if not df:
            if p == 0:
                if polys.uni_deg(f) > 0:
                    raise ValueError("vanishing derivative in characteristic zero")
                continue
            todo.append((uni_pth_root(F, f, p), scale * p))
            continue
        c = polys.uni_gcd(F, f, df)
        w = polys.uni_divmod(F, f, c)[0]
        i = 1
        while polys.uni_deg(w) > 0:
            y = polys.uni_gcd(F, w, c)
            fac = polys.uni_divmod(F, w, y)[0]
            if polys.uni_deg(fac) > 0:
                result[fac] = result.get(fac, 0) + i * scale
            w = y
            c = polys.uni_divmod(F, c, y)[0]
            i += 1
        if polys.uni_deg(c) > 0:
            if p == 0:
                raise ValueError("unexpected residual in characteristic zero")
            todo.append((uni_pth_root(F, c, p), scale * p))
    return sorted(result.items(), key=lambda t: (t[1], polys.uni_deg(t[0]), t[0]))


def _monic_polys_of_degree(F, d):
    """All monic degree-d polynomials over a finite prime field, in a
    deterministic order."""
    for low in itertools.product(F.elements(), repeat=d):
        yield polys.uni_trim(list(low) + [F.one()], F)


def _factor_squarefree_fp(F, g, counter):
    """Trial division of squarefree monic g over Fp into irreducibles."""
    out = []
    d = 1
    while 2 * d <= polys.uni_deg(g):
        for h in _monic_polys_of_degree(F, d):
            counter.tick()
            q, r = polys.uni_divmod(F, g, h)
            if not r:
                out.append(h)
                g = q
                if 2 * d > polys.uni_deg(g):
                    break
        d += 1
    if polys.uni_deg(g) > 0:
        out.append(g)
    return out


def _rational_roots(F, g):
    """Rational roots of squarefree g over Q, via the integer-cleared
    primitive polynomial."""
    from fractions import Fraction

    den = math.lcm(*(c.denominator for c in g))
    ints = [int(c * den) for c in g]
    content = math.gcd(*(abs(c) for c in ints if c)) or 1
    ints = [c // content for c in ints]
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints and ints[0] == 0:
            ints = ints[1:]
    a0, an = abs(ints[0]), abs(ints[-1])
    for p in range(1, a0 + 1):
        if a0 % p:
            continue
        for q in range(1, an + 1):
            if an % q or math.gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if polys.uni_eval(F, g, cand) == 0:
                    roots.append(cand)
    return sorted(set(roots))


def _factor_squarefree_q(F, g):
    """(irreducible factors found, leftover or None) for squarefree
    monic g over Q."""
    out = []
    for r in _rational_roots(F, g):
        lin = polys.uni_trim([F.neg(r), F.one()], F)
        q, rem = polys.uni_divmod(F, g, lin)
        assert not rem
        out.append(lin)
        g = q
    if polys.uni_deg(g) <= 0:
        return out, None
    if polys.uni_deg(g) <= 3:
        # no rational root and degree 2 or 3: irreducible over Q
        out.append(g)
        return out, None
    return out, g


def factor_unipoly(F, f):
    """Factor monic nonconstant f over F (Q or Fp).

    Returns (pairs, complete): pairs is a sorted list of (monic factor,
    multiplicity); complete=False means some listed factor of degree
    >= 4 over Q may itself be reducible.
    """
    if polys.uni_deg(f) < 1:
        raise ValueError("factor_unipoly needs a nonconstant polynomial")
    f = polys.uni_monic(F, f)[0]
    complete = True
    pairs = []
    counter = StepCounter("factor_unipoly")
    for g, mult in uni_squarefree(F, f):
        if F.kind == "Fp":
            irs = _factor_squarefree_fp(F, g, counter)
        else:
            irs, leftover = _factor_squarefree_q(F, g)
            if leftover is not None:
                irs = list(irs) + [leftover]
                complete = False
        for h in irs:
            pairs.append((h, mult))
    merged = {}
    for h, m in pairs:
        merged[h] = merged.get(h, 0) + m
    ordered = sorted(merged.items(), key=lambda t: (polys.uni_deg(t[0]), t[0]))
    return ordered, complete
