"""Finitely generated ideals with cached canonical normal data and
powers.

Every Tier-1 ring is a quotient D/(mu) of a Euclidean cover ring D,
with mu = 0 when the ring is D itself.  An ideal of D/(mu) is the
image of the principal ideal of D generated by

    g = gcd(f_1, ..., f_k, mu),

the cover generator, each f_i read in D as its canonical
representative.  Membership, unit and radical tests all run on g in D;
the normal data is the projection of g.  Over the Tier-2 multivariate
rings the normal data is the reduced Groebner basis.

Ideal equality is normal-data equality, which is sound because each of
those normal forms is a complete invariant.
"""

from . import polys
from .budget import StepCounter
from .errors import RadicalBoundExceededError, StepBudgetExceededError, TierError
from .groebner import buchberger, normal_form
from .rings import MultiPolyRing, RingElem

RADICAL_POWER_BOUND = 64


class Ideal:
    __slots__ = ("ring", "gens", "_normal", "_cover_gen", "_powers")

    def __init__(self, ring, gens):
        self.ring = ring
        elems = tuple(ring.elem(g) for g in gens)
        pruned = tuple(g for g in elems if not ring.is_zero(g.payload))
        if not pruned:
            pruned = (RingElem(ring, ring.zero()),)
        self.gens = pruned
        self._powers = []  # I^2, I^3, ...; I itself would be a reference cycle
        if isinstance(ring, MultiPolyRing):
            self._cover_gen = None
            self._normal = buchberger(ring, [g.payload for g in pruned])
        else:
            payloads = [g.payload for g in pruned] + [ring.modulus]
            self._cover_gen = ring.cover_ring.gcd_list(payloads)
            self._normal = (ring.project(self._cover_gen),)

    # normal data --------------------------------------------------------

    @property
    def normal_payloads(self):
        return self._normal

    @property
    def normal_gens(self):
        if not self._normal:
            return (RingElem(self.ring, self.ring.zero()),)
        return tuple(RingElem(self.ring, p) for p in self._normal)

    @property
    def cover_gen(self):
        """Canonical generator of the lifted ideal in the cover ring; over
        a Euclidean ring the canonical generator itself."""
        if self._cover_gen is None:
            raise TierError("cover generator only exists over principal-ideal tiers")
        return self._cover_gen

    def render(self):
        return "(" + ", ".join(self.ring.render(g.payload) for g in self.normal_gens) + ")"

    def __repr__(self):
        return f"Ideal{self.render()} over {self.ring.describe()}"

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and other.ring == self.ring
            and other._normal == self._normal
        )

    def __hash__(self):
        return hash((self.ring, self._normal))

    # predicates ---------------------------------------------------------

    def is_zero_ideal(self):
        return not any(self._normal)

    def is_unit_ideal(self):
        if isinstance(self.ring, MultiPolyRing):
            return len(self._normal) == 1 and self.ring.is_unit(self._normal[0])
        return self.ring.cover_ring.is_unit(self._cover_gen)

    def is_proper(self):
        return not self.is_unit_ideal()

    def member(self, f):
        f = self.ring.elem(f)
        ring = self.ring
        if isinstance(ring, MultiPolyRing):
            if not self._normal:
                return ring.is_zero(f.payload)
            return not normal_form(ring, f.payload, self._normal)
        cover = ring.cover_ring
        if cover.is_zero(self._cover_gen):
            return cover.is_zero(f.payload)
        return cover.is_zero(cover.euclid_divmod(f.payload, self._cover_gen)[1])

    def contains(self, other):
        if other.ring != self.ring:
            raise TierError("ideal containment needs a common ring")
        return all(self.member(g) for g in other.normal_gens)

    # arithmetic ---------------------------------------------------------

    def product(self, other):
        if other.ring != self.ring:
            raise TierError("ideal product needs a common ring")
        ring = self.ring
        mine = self._normal or (ring.zero(),)
        theirs = other._normal or (ring.zero(),)
        prods = [ring.mul(a, b) for a in mine for b in theirs]
        return Ideal(ring, [RingElem(ring, p) for p in prods])

    def power(self, n):
        """I^n.  Each ideal keeps the powers I^2, I^3, ... it has built,
        so a ladder over n costs one product per new rung."""
        if n < 0:
            raise ValueError("ideal powers need n >= 0")
        if n == 0:
            return Ideal(self.ring, [RingElem(self.ring, self.ring.one())])
        if n == 1:
            return self
        powers = self._powers
        while len(powers) < n - 1:
            powers.append((powers[-1] if powers else self).product(self))
        return powers[n - 2]

    def powers_stabilize(self, max_n):
        """Least n <= max_n with I^n == I^(n+1), else None."""
        if max_n < 1:
            raise ValueError("powers_stabilize needs max_n >= 1")
        for n in range(1, max_n + 1):
            if self.power(n + 1) == self.power(n):
                return n
        return None

    def nilpotency_index(self):
        """Least k with I^k == (0), or None when I is not nilpotent.

        Exact, with no power bound: over a domain only (0) is nilpotent;
        over D/(mu) the ideal is nilpotent iff its generators lie in
        sqrt(0), and then its powers reach (0)."""
        if self.is_zero_ideal():
            return 1
        if self.ring.is_domain:
            return None
        nilradical = Ideal(self.ring, [0])
        if not all(nilradical.radical_member(g) for g in self.normal_gens):
            return None
        k = 1
        while not self.power(k).is_zero_ideal():
            k += 1
        return k

    # radical membership -------------------------------------------------

    def radical_member(self, f):
        """Exact test for f in sqrt(I); total on principal-ideal tiers,
        budget-guarded (Rabinowitsch, then bounded powers) on Tier 2."""
        f = self.ring.elem(f)
        ring = self.ring
        if ring.is_zero(f.payload):
            return True
        if isinstance(ring, MultiPolyRing):
            return self._radical_member_multi(f.payload)
        return euclid_radical_member(ring.cover_ring, self._cover_gen, f.payload)

    def _radical_member_multi(self, f):
        ring = self.ring
        try:
            ext = _rabinowitsch_ring(ring)
            embedded = [polys.m_extend(g, ring.mono, ext.mono) for g in self._normal]
            t = ext.var_elem(ext.nvars - 1).payload
            trick = ext.sub(ext.one(), ext.mul(t, polys.m_extend(f, ring.mono, ext.mono)))
            gb = buchberger(ext, embedded + [trick])
            return len(gb) == 1 and ext.is_unit(gb[0])
        except StepBudgetExceededError:
            pass
        # fallback: bounded direct powers
        power = f
        for _ in range(RADICAL_POWER_BOUND):
            if self.member(RingElem(ring, power)):
                return True
            power = ring.mul(power, f)
        raise RadicalBoundExceededError(
            f"radical membership undecided within power bound {RADICAL_POWER_BOUND}"
        )


def euclid_radical_member(ring, g, f):
    """f in sqrt((g)) over a Euclidean domain, by iterated gcd division."""
    if ring.is_zero(g):
        return ring.is_zero(f)
    c = g
    counter = StepCounter("radical_member")
    while True:
        counter.tick()
        d = ring.gcd(c, f)
        if ring.is_unit(d):
            return ring.is_unit(c)
        c = ring.exact_div(c, d)


def _rabinowitsch_ring(ring):
    base = set(ring.vars)
    for cand in ("t", "u", "w", "t0", "t1", "t2"):
        if cand not in base:
            return MultiPolyRing(ring.F, ring.vars + (cand,), ring.order)
    raise TierError("could not pick a fresh Rabinowitsch variable")

