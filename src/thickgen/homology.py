"""Homology of free complexes as finitely presented modules, plus
annihilators and homological support.

Every Tier-1 ring is R = D/(mu) for a Euclidean cover ring D, with
mu = 0 when R is D itself.  The modulus picks one of two readings of
H^n = ker(d^n)/im(d^(n-1)), both done in D.

Over D itself (mu = 0: Z, Q, F_p, k[x]) ker(d^n) is a direct summand
of rank rank_n - rk d^n that contains im(d^(n-1)), so

    H^n = D^(rank_n - rk d^n - rk d^(n-1)) (+) D/(s_1) (+) ... (+) D/(s_k)

with s_i the non-unit invariant factors of d^(n-1) (Munkres, Elements
of Algebraic Topology, section 11).  Each differential's invariant
factors (snf.invariant_factors, a Smith form without transforms) are
all the reading needs, and homology_all computes them once per
differential for every degree.

Over D/(mu) with mu nonzero (Z/m, k[t]/(f)) let A (m x r) and B
(r x s) be d^n and d^(n-1) read over D, each entry its canonical
representative (the payload itself).  A B = 0 mod mu, so C = A B / mu
is exact in D, and

    D^(s+r) --M--> D^(r+m) --[A | mu*I]--> D^m,   M = [[B, mu*I], [-C, -A]]

is a complex over D with H^n(X) = ker[A | mu*I] / im M:
  - projecting to the first r coordinates is injective on ker[A | mu*I],
    since mu is nonzero in a domain;
  - it maps ker[A | mu*I] onto L = {v : A v in mu*D^m}, which is ker d^n
    lifted to D^r;
  - it maps im M onto im B + mu*D^r, which is im d^(n-1) lifted;
  - im M has finite index in ker[A | mu*I], a direct summand of
    D^(r+m), so H^n is the sum of the D/(s_i) over the invariant
    factors s_i of M.
A factor associate to mu reads as a free summand of rank one.

homology_all is computed once per complex object: the first call
stores its dict in a slot of the FreeComplex, which never changes once
built, and later calls return copies.  Every command that reads a
complex's homology (homology, ann, support, thick-member, level-lb,
is_quasi_iso) thus sweeps its differentials once.  Nothing is kept
outside the object, so an equal but distinct complex, or the same
script run again, computes afresh.  homology(X, n) reads one degree
of that stored sweep.

Annihilators and supports are principal, so they are computed on cover
generators: the total annihilator is the lcm of the per-degree ones,
and V(g) lies in a union of V(h_j) iff the product of the h_j lies in
sqrt((g)).
"""

from collections import namedtuple

from .errors import TierError
from .ideals import Ideal, euclid_radical_member
from .matrices import Matrix
from .rings import RingElem
from .snf import invariant_factors
from .spectrum import prime_factors


class FPModule(namedtuple("FPModule", "ring free_rank factors")):
    """R^free_rank (+) R/(f1) (+) ... with f1 | f2 | ... canonical,
    none zero or unit."""

    def __new__(cls, ring, free_rank, factors):
        for f in factors:
            if ring.is_zero(f) or ring.is_unit(f):
                raise ValueError("invariant factors must be nonzero non-units")
        return super().__new__(cls, ring, free_rank, factors)

    def is_zero(self):
        return self.free_rank == 0 and not self.factors

    def render(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("R")
        elif self.free_rank > 1:
            parts.append(f"R^{self.free_rank}")
        for f in self.factors:
            parts.append(f"R/({self.ring.render(f)})")
        return " + ".join(parts)

    def __repr__(self):
        return f"FPModule[{self.render()} over {self.ring.describe()}]"

    def ann(self):
        """Annihilator ideal: (0) with free part, else the last
        invariant factor, else (1)."""
        if self.free_rank > 0:
            return Ideal(self.ring, [0])
        if not self.factors:
            return Ideal(self.ring, [1])
        return Ideal(self.ring, [RingElem(self.ring, self.factors[-1])])


def fp_direct_sum(a, b):
    """Invariant-factor form of a (+) b over ring = D/(mu): each factor
    f becomes the canonical generator gcd(f, mu) of its lifted ideal and
    each free summand the modulus, and the module is read from the
    invariant factors of that diagonal over D."""
    if a.ring != b.ring:
        raise TierError("direct sum of modules over different rings")
    ring = a.ring
    cover = ring.cover_ring
    diag = [cover.gcd(f, ring.modulus) for f in a.factors + b.factors]
    diag += [ring.modulus] * (a.free_rank + b.free_rank)
    k = len(diag)
    D = Matrix.build(cover, k, k, lambda i, j: diag[i] if i == j else cover.zero())
    return _read_invariants(ring, k, invariant_factors(D))


def _read_invariants(ring, k, diagonal):
    """FPModule over ring = D/(mu) presented by k generators over D,
    with `diagonal` the Smith form diagonal of the relations (canonical
    associates, as is the modulus): unit entries vanish, entries
    associate to mu (zero included when mu = 0) and the
    k - len(diagonal) unrelated generators are free of rank one, the
    rest are torsion."""
    cover = ring.cover_ring
    free = k - len(diagonal)
    factors = []
    for d in diagonal:
        if cover.is_unit(d):
            continue
        if d == ring.modulus:
            free += 1
        else:
            factors.append(ring.project(d))
    return FPModule(ring, free, tuple(factors))


def require_tier_one(ring):
    if ring.tier != 1:
        raise TierError(f"homology needs a Tier-1 ring, got {ring.describe()}")


def homology(X, n):
    """H^n(X) as an FPModule over X.ring (Tier 1 only), read from
    homology_all(X); the zero module where X has no module in degree n.
    The tier check comes first, since the zero complex sweeps to {}
    over any ring."""
    require_tier_one(X.ring)
    return homology_all(X).get(n, FPModule(X.ring, 0, ()))


def homology_all(X):
    """Dict degree -> FPModule, over the degrees where X has a module.
    The first call on a complex object stores the result on it, and
    every call returns a fresh copy of what is stored; a call that
    raises stores nothing."""
    if X._homology is None:
        X._homology = _sweep(X)
    return dict(X._homology)


def _sweep(X):
    """Every degree's homology of X; over D itself each differential's
    invariant factors are computed once for all degrees.  The zero
    complex has no degrees, over any ring."""
    if X.is_zero_complex():
        return {}
    require_tier_one(X.ring)
    if X.ring.modulus:
        return {n: _quotient_homology(X, n) for n in X.degrees()}
    # over D, ker d^n has rank rank_n - rk d^n and contains im d^(n-1)
    # as a submodule with the invariant factors of d^(n-1); a degree
    # with no differential has none
    factors = {n: invariant_factors(d) for n, d in X.diffs.items()}
    return {
        n: _read_invariants(X.ring, X.rank(n) - len(factors.get(n, ())), factors.get(n - 1, ()))
        for n in X.degrees()
    }


def _quotient_homology(X, n):
    """H^n over D/(mu), mu nonzero, from the invariant factors of
    M = [[B, mu*I], [-C, -A]] with A, B the lifted d^n, d^(n-1) and
    C = A B / mu (see the module docstring).  A payload is its own
    representative in D, so lifting a matrix only re-tags its ring."""
    ring = X.ring
    cover, mu = ring.cover_ring, ring.modulus
    A, B = (Matrix(cover, d.rows, d.nrows, d.ncols) for d in (X.diff(n), X.diff(n - 1)))
    C = (A @ B).map_entries(lambda x: cover.exact_div(x, mu))
    (m, r), s = A.shape(), B.ncols
    muI = Matrix.scalar(cover, mu, r)
    M = Matrix.from_blocks(cover, r + m, s + r, [(0, 0, B), (0, s, muI), (r, 0, -C), (r, s, -A)])
    return _read_invariants(ring, r, invariant_factors(M))


def ann_total_homology(X):
    """Annihilator of the direct sum of all homology modules: the
    intersection of the per-degree annihilators."""
    return supph(X).ideal()


# ----------------------------------------------------------------- support


class SupportSet(namedtuple("SupportSet", "ring components")):
    """Finite union of closed sets V(I_j), each component a normalized
    ideal of the same ring."""

    def is_empty(self):
        return not self.components

    def render(self):
        if not self.components:
            return "empty"
        return " u ".join("V" + c.render() for c in self.components)

    def __repr__(self):
        return f"SupportSet[{self.render()}]"

    def ideal(self):
        """The intersection of the components, the lcm of their cover
        generators; for supph(X) it is ann H*(X)."""
        ring = self.ring
        require_tier_one(ring)
        cover = ring.cover_ring
        acc = cover.one()
        for c in self.components:
            acc = cover.lcm(acc, c.cover_gen)
        return Ideal(ring, [RingElem(ring, ring.project(acc))])

    def contains(self, other):
        """Inclusion other <= self of closed subsets: V(g) lies in the
        union of the V(h) iff the product of the h lies in sqrt((g)),
        read in the cover ring, where every component is principal."""
        if other.ring != self.ring:
            raise TierError("support containment needs a common ring")
        if other.is_empty():
            return True
        targets = [c.cover_gen for c in other.components]  # TierError over Tier 2
        cover = self.ring.cover_ring
        prod = cover.one()
        for c in self.components:
            prod = cover.mul(prod, c.cover_gen)
        return all(euclid_radical_member(cover, g, prod) for g in targets)


def supph(X):
    """Homological support: union of V(ann H^n(X)) over all degrees,
    one component per distinct proper annihilator."""
    ring = X.ring
    anns = {}
    for M in homology_all(X).values():
        a = M.ann()
        if not a.is_unit_ideal():
            anns[a.cover_gen] = a
    order = sorted(anns, key=lambda g: (ring.cover_ring.euclid_norm(g), g))
    return SupportSet(ring, tuple(anns[g] for g in order))


def closed_set(ideal):
    """V(I) as a single-component support set."""
    return SupportSet(ideal.ring, (ideal,))


def resolve_primes(support):
    """List of prime ideals covering the support, for display; None when
    the spectrum is infinite over the component or factorization is
    incomplete."""
    ring = support.ring
    primes = []
    for comp in support.components:
        g = comp.cover_gen
        if ring.cover_ring.is_zero(g):
            # V(0) over a domain: one point for a field, else infinite
            if not ring.is_field:
                return None
            pairs = [(g, 1)]
        else:
            pairs, complete = prime_factors(ring, g)
            if not complete:
                return None
        for p, _ in pairs:
            p = ring.project(p)
            if p not in primes:
                primes.append(p)
    return [Ideal(ring, [RingElem(ring, p)]) for p in primes]
