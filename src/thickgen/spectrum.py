"""Spectrum-level structure: idempotents, connectedness, prime
enumeration for finite spectra, and the nilpotence dichotomy for
stabilizing ideal power chains.

A domain (every Euclidean ring, every Tier-2 ring) has only the
idempotents 0 and 1.  A quotient R = D/(mu) of a Euclidean domain is
read through its cover ring D: prime_factors splits mu into pairwise
coprime blocks q_i = p_i^e_i (factor_integer over Z, factor_unipoly
over k[t]), and the CRT idempotent of a block is the residue of
(mu/q_i) * s with s = D.inverse_mod(mu/q_i, q_i), which exists
because the blocks are coprime.  Sums of these give every idempotent
once the split is complete, and two or more blocks already show that
Spec is disconnected.  A ring is reported connected exactly when 0 and 1 are
the only idempotents; over Q-coefficient quotients whose modulus
resists complete factorization the answer can be "unknown", reported
as None rather than a guess.
"""

from collections import namedtuple

from .errors import EngineError, FactorizationIncompleteError
from .factor import factor_integer, factor_unipoly
from .ideals import Ideal
from .rings import RingElem


def prime_factors(ring, g):
    """(pairs, complete) for a nonzero non-unit g of ring's cover ring:
    pairs lists (canonical prime, exponent), pairwise coprime with
    product g up to a unit; complete=False means a listed factor of
    degree >= 4 over Q may itself be reducible."""
    cover = ring.cover_ring
    if cover.kind == "Z":
        return factor_integer(g), True
    return factor_unipoly(cover.F, g)


def _crt_basis(ring):
    """(basis, complete): the CRT idempotent of each block of the
    coprime split of the modulus of a quotient ring, in prime_factors
    order, and whether that split is into prime powers."""
    cover = ring.cover_ring
    mu = ring.modulus
    pairs, complete = prime_factors(ring, mu)
    basis = []
    for p, e in pairs:
        q = cover.pow_(p, e)
        rest = cover.exact_div(mu, q)
        basis.append(ring.project(cover.mul(rest, cover.inverse_mod(rest, q))))
    return basis, complete


def _subset_sums(ring, basis):
    """The 2^len(basis) sums of subsets of basis, sorted by Euclidean
    norm then payload (so 0 and 1 come first)."""
    cover = ring.cover_ring
    out = set()
    for mask in range(1 << len(basis)):
        e = ring.zero()
        for i, b in enumerate(basis):
            if mask >> i & 1:
                e = ring.add(e, b)
        out.add(e)
    return sorted(out, key=lambda p: (cover.euclid_norm(p), p))


def idempotents(ring):
    """All idempotent payloads, sorted deterministically.

    Raises FactorizationIncompleteError when the modulus cannot be
    fully split (so the complete list cannot be certified).
    """
    if ring.is_domain:
        return [ring.zero(), ring.one()]
    basis, complete = _crt_basis(ring)
    if not complete:
        raise FactorizationIncompleteError(
            f"modulus of {ring.describe()} did not factor completely"
        )
    return _subset_sums(ring, basis)


def is_connected_spec(ring):
    """(connected, witness): connected is True/False/None (None =
    undecided), witness is a nontrivial idempotent payload when
    disconnected.  A split into two coprime blocks gives an exact
    idempotent even when the blocks hide further factors.

    The witness over k[t]/(f) is the first block's CRT idempotent; over
    Z/m it is the least nontrivial idempotent, found among the 2^k
    subset sums of the k prime-power blocks of m."""
    if ring.is_domain:
        return True, None
    basis, complete = _crt_basis(ring)
    if len(basis) >= 2:
        if ring.cover_ring.kind == "Z":
            return False, _subset_sums(ring, basis)[2]
        return False, basis[0]
    if complete:
        return True, None
    return None, None


def connected_lines(ring, connected, witness):
    """`connected:` (yes, no or unknown for None) and the `idempotent:`
    that splits Spec when a witness is given."""
    out = ["connected: " + {True: "yes", False: "no", None: "unknown"}[connected]]
    if witness is not None:
        out.append(f"idempotent: {ring.render(witness)}")
    return out


class SpecReport(namedtuple("SpecReport", "ring connected witness points note")):
    """connected is True, False or None; points lists the prime ideals
    of a finite spectrum, else None."""

    def lines(self):
        out = [f"ring: {self.ring.describe()}"]
        out += connected_lines(self.ring, self.connected, self.witness)
        if self.points is not None:
            out.append(
                "points: "
                + (" ; ".join(p.render() for p in self.points) if self.points else "none")
            )
        if self.note:
            out.append(f"note: {self.note}")
        return out


def spec_description(ring):
    """Human-facing description of Spec: connectedness plus the point
    list when the spectrum is finite."""
    connected, witness = is_connected_spec(ring)
    points = None
    note = ""
    if not ring.is_domain:
        pairs, complete = prime_factors(ring, ring.modulus)
        if complete:
            points = [Ideal(ring, [RingElem(ring, ring.project(p))]) for p, _ in pairs]
        else:
            note = "modulus did not factor completely; point list omitted"
    elif ring.is_field:
        points = [Ideal(ring, [0])]
        note = "a field: Spec is a single point"
    elif ring.tier == 2:
        note = "polynomial ring over a field: a connected domain"
    else:
        note = "infinite spectrum of a principal ideal domain"
    return SpecReport(ring, connected, witness, points, note)


class NilpotenceReport(
    namedtuple(
        "NilpotenceReport",
        "ring ideal max_n connected witness stabilization_index nilpotency_index verdict",
    )
):

    def lines(self):
        out = [
            f"ring: {self.ring.describe()}",
            f"ideal: {self.ideal.render()}",
            f"max: {self.max_n}",
        ] + connected_lines(self.ring, self.connected, self.witness)
        out.append(
            "stabilizes: "
            + (f"at {self.stabilization_index}" if self.stabilization_index else "no")
        )
        out.append(
            "nilpotent: "
            + (f"index {self.nilpotency_index}" if self.nilpotency_index else "no")
        )
        out.append(f"verdict: {self.verdict}")
        return out


def nilpotence_lemma_check(ideal, max_n):
    """Check the dichotomy: over a connected spectrum, a power chain
    that stabilizes within max_n must land on the zero ideal."""
    ring = ideal.ring
    connected, witness = is_connected_spec(ring)
    stab = ideal.powers_stabilize(max_n)
    nil = ideal.nilpotency_index()
    if nil is not None and nil > max_n + 1:
        nil = None  # reported within the bound, like the stabilization
    if not ideal.is_proper():
        verdict = "inapplicable-unit-ideal"
    elif stab is None:
        verdict = "no-stabilization-within-bound"
    elif connected is True:
        if nil is not None:
            verdict = "nilpotent-as-required"
        else:
            # the stable power of a proper ideal over a connected
            # spectrum must vanish; reaching this line is a bug
            raise EngineError(
                "stabilizing proper ideal over a connected spectrum "
                "failed to be nilpotent"
            )
    elif connected is False:
        verdict = (
            "nilpotent" if nil is not None else "hypothesis-fails-disconnected"
        )
    else:
        verdict = "connectedness-unknown"
    return NilpotenceReport(
        ring=ring,
        ideal=ideal,
        max_n=max_n,
        connected=connected,
        witness=witness,
        stabilization_index=stab,
        nilpotency_index=nil,
        verdict=verdict,
    )
