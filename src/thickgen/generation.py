"""Generation-level machinery: build witnesses (exact upper bounds),
annihilator-power lower bounds, thick-subcategory membership, and the
obstruction report showing a connected-spectrum ring cannot be strongly
generated through Koszul complexes of ideal powers.

A build witness is a tree proving "X can be assembled from G with k
levels": leaves are shifted copies of G, Sum nodes take finite direct
sums, and every Cone node glues one extra level onto its base.
`realize` checks while it builds: every node it realizes replays its
structural checks, so validating a witness is one walk of the tree and
a certificate is only as good as exact arithmetic.

The lower bound rests on two exact facts: for a three-term exact
sequence the product of the outer annihilators kills the middle, and a
direct summand inherits annihilators.  Inductively, X in <G>_k forces
ann(H* G)^k <= ann(H* X), so the least k without a fresh witness
element in ann(H* G)^(k-1) \\ ann(H* X) is a certified lower bound.
"""

from collections import namedtuple

from .complexes import (
    ChainMap,
    cone,
    direct_sum,
    is_quasi_iso,
    koszul,
    zero_complex,
)
from .errors import (
    ConnectednessUnknownError,
    DisconnectedSpectrumError,
    EngineError,
    LevelBoundExceededError,
    PowersStabilizedError,
    TierError,
    WitnessValidationError,
)
from .homology import require_tier_one, supph
from .ideals import Ideal
from .matrices import Matrix
from .rings import RingElem
from .spectrum import connected_lines, is_connected_spec

LEVEL_SEARCH_CAP = 512

# I kills H*(K(I)) because d h_i + h_i d = f_i for h_i exterior
# multiplication by e_i (Eisenbud, GTM 150, ch. 17)
POWER_NOTE = (
    "generator-ann I kills H*(K(I)) and H^0(K(I^n)) = R/I^n, so target-ann I^n "
    "contains ann H*(K(I^n)); this holds for any list of generators"
)


# --------------------------------------------------------------- witnesses


Leaf = namedtuple("Leaf", "shift", defaults=(0,))
Sum = namedtuple("Sum", "children")
# glue: shift(realize(top), -1) -> realize(base)
Cone = namedtuple("Cone", "base top glue")
# comparison: a quasi-iso between realize(root) and X, or None
BuildWitness = namedtuple("BuildWitness", "root comparison", defaults=(None,))


def level(node):
    if isinstance(node, Leaf):
        return 1
    if isinstance(node, Sum):
        return max((level(c) for c in node.children), default=1)
    if isinstance(node, Cone):
        return level(node.base) + 1
    raise TypeError(f"not a witness node: {node!r}")


def _replay_chain_map(f):
    """Re-run all structural checks on a chain map."""
    return ChainMap(f.src, f.dst, dict(f.comps))


def realize(node, G, path="root"):
    """The complex a witness node builds from G, replaying every
    structural check on the way; a failed check names its path."""
    try:
        if isinstance(node, Leaf):
            return G.shift(node.shift)
        if isinstance(node, Sum):
            parts = [
                realize(c, G, f"{path}.child[{i}]")
                for i, c in enumerate(node.children)
            ]
            if not parts:
                return zero_complex(G.ring)
            return direct_sum(parts)
        if isinstance(node, Cone):
            base = realize(node.base, G, f"{path}.base")
            top = realize(node.top, G, f"{path}.top")
            if level(node.top) != 1:
                raise WitnessValidationError(
                    f"{path}.top", "cone tops must stay at level one"
                )
            if node.glue.src != top.shift(-1):
                raise WitnessValidationError(
                    f"{path}.glue", "glue source is not the desuspended top"
                )
            if node.glue.dst != base:
                raise WitnessValidationError(
                    f"{path}.glue", "glue target is not the realized base"
                )
            _replay_chain_map(node.glue)
            return cone(node.glue)
        raise WitnessValidationError(path, f"unknown node {node!r}")
    except WitnessValidationError:
        raise
    except EngineError as exc:
        raise WitnessValidationError(path, str(exc))


def validate_witness(witness, X, G):
    """Replay every check in the witness tree against X and G; returns
    the certified level on success."""
    built = realize(witness.root, G)
    if witness.comparison is None:
        if built != X:
            raise WitnessValidationError(
                "root", "realization differs from the target and no comparison map given"
            )
    else:
        cmp = witness.comparison
        if (cmp.src, cmp.dst) not in ((built, X), (X, built)):
            raise WitnessValidationError(
                "comparison", "comparison map does not join the realization and the target"
            )
        _replay_chain_map(cmp)
        if not is_quasi_iso(cmp):
            raise WitnessValidationError(
                "comparison", "comparison map is not a quasi-isomorphism"
            )
    return level(witness.root)


# ------------------------------------------------------------ certificates


def level_lines(k):
    """Level k and its cone count k-1: reports quote either."""
    return [f"level: {k}", f"cones: {k - 1}"]


class LowerBoundCert(
    namedtuple("LowerBoundCert", "level generator_ann target_ann witness note", defaults=("",))
):
    """witness is a RingElem in generator_ann^(level-1) \\ target_ann, or
    None."""

    kind = "lower-bound"

    def lines(self):
        out = [f"kind: {self.kind}"] + level_lines(self.level)
        out.append(f"generator-ann: {self.generator_ann.render()}")
        out.append(f"target-ann: {self.target_ann.render()}")
        if self.witness is not None:
            out.append(f"generator: {self.witness!r}")
        if self.note:
            out.append(f"note: {self.note}")
        return out


class NotInThickCert(
    namedtuple("NotInThickCert", "missing_gen support_x support_g note", defaults=("",))
):
    """missing_gen is a RingElem of generator_ann outside
    sqrt(target_ann)."""

    kind = "not-in-thick"

    def lines(self):
        out = [f"kind: {self.kind}", "membership: no"]
        out.append(f"generator: {self.missing_gen!r}")
        out.append(f"support-target: {self.support_x.render()}")
        out.append(f"support-generator: {self.support_g.render()}")
        if self.note:
            out.append(f"note: {self.note}")
        return out


def level_lower_bound(X, G, cap=LEVEL_SEARCH_CAP):
    """Least k with ann(H* G)^k <= ann(H* X), certified; NotInThickCert
    when the supports already rule membership out."""
    require_tier_one(G.ring)
    require_tier_one(X.ring)
    sG, sX = supph(G), supph(X)
    aG, aX = sG.ideal(), sX.ideal()
    if aG.is_unit_ideal():
        raise EngineError("generator complex has zero homology")
    if aX.is_unit_ideal():
        raise EngineError("target complex has zero homology")
    if not sG.contains(sX):
        # over Tier 1 ann(H* G) has one normal generator, the lcm of the
        # components, and V of it is the union of theirs
        return NotInThickCert(
            missing_gen=aG.normal_gens[0],
            support_x=sX,
            support_g=sG,
            note="support of the target is not contained in the support "
            "of the generator",
        )
    # past the support check a power of the one generator of ann(H* G)
    # lies in ann(H* X), so the powers cannot freeze short of containment
    prev_witness = None
    for k in range(1, cap + 1):
        power = aG.power(k)
        if aX.contains(power):
            note = ""
            if k == 1:
                note = "annihilator containment holds at the first power"
            return LowerBoundCert(
                level=k,
                generator_ann=aG,
                target_ann=aX,
                witness=prev_witness,
                note=note,
            )
        prev_witness = next(
            (g for g in power.normal_gens if not aX.member(g)), None
        )
    raise LevelBoundExceededError(f"no containment within {cap} powers")


class ThickMembership(namedtuple("ThickMembership", "member support_x support_g")):
    def lines(self):
        out = [f"membership: {'yes' if self.member else 'no'}"]
        out.append(f"support-target: {self.support_x.render()}")
        out.append(f"support-generator: {self.support_g.render()}")
        return out


def thick_member(X, G):
    """Support criterion: X lies in the thick subcategory generated by
    G iff supp X <= supp G."""
    sX = supph(X)
    sG = supph(G)
    return ThickMembership(member=sG.contains(sX), support_x=sX, support_g=sG)


def koszul_power_obstruction(I, n):
    """Certificate that koszul(I^n) needs at least n levels (n-1 cones)
    against the generator koszul(I), over any ring.  No complex is
    built: the two containments the bound rests on, I <= ann H*(K(I))
    and ann H*(K(I^n)) <= I^n, hold for any list of generators
    (POWER_NOTE)."""
    if not I.is_proper():
        raise EngineError("obstruction needs a proper ideal")
    if n < 1:
        raise ValueError("power must be at least 1")
    p_prev = I.power(n - 1)
    p_n = I.power(n)
    witness = next((g for g in p_prev.normal_gens if not p_n.member(g)), None)
    if witness is None:
        raise PowersStabilizedError(
            n - 1,
            f"I^{n - 1} equals I^{n}; the power chain stabilized and the "
            f"obstruction at n = {n} vanishes",
        )
    return LowerBoundCert(
        level=n, generator_ann=I, target_ann=p_n, witness=witness, note=POWER_NOTE
    )


def principal_power_witness(x, n):
    """Iterated-cone witness that koszul((x^n)) is reachable from
    koszul((x)) in exactly n levels, with the comparison quasi-iso.

    Returns (witness, target_complex).
    """
    if not isinstance(x, RingElem):
        raise TypeError("principal_power_witness needs a ring element")
    ring = x.ring
    if ring.tier != 1:
        raise TierError("witness construction needs a Tier-1 ring")
    if n < 1:
        raise ValueError("power must be at least 1")
    G = koszul(Ideal(ring, [x]))
    node = Leaf(0)
    C = G
    q = {  # comparison C_k -> koszul((x^k)), degree -> 1 x k row
        -1: [ring.one()],
        0: [ring.one()],
    }
    for k in range(2, n + 1):
        z = [ring.zero()] * C.rank(0)
        if k == 2:
            z[0] = ring.one()
        else:
            z[0] = ring.neg(ring.one())
        glue = ChainMap(
            G.shift(-1),
            C,
            {0: Matrix.column(ring, z)},
        )
        node = Cone(base=node, top=Leaf(0), glue=glue)
        C = cone(glue)
        q = {
            -1: [ring.zero()] + q[-1],
            0: [ring.neg(ring.one())] + [ring.mul(x.payload, c) for c in q[0]],
        }
    target = koszul(Ideal(ring, [x**n]))
    comparison = ChainMap(
        C,
        target,
        {
            -1: Matrix(ring, [q[-1]], 1, C.rank(-1)),
            0: Matrix(ring, [q[0]], 1, C.rank(0)),
        },
    )
    return BuildWitness(root=node, comparison=comparison), target


class ObstructionReport(
    namedtuple(
        "ObstructionReport",
        "ring ideal max_n connected mode nilpotency_index certificates verdict note",
        defaults=((), "", ""),
    )
):
    """mode is "obstruction" or "degenerate"."""

    def blocks(self):
        """Report blocks: the head, one block per certificate, the
        verdict."""
        head = [
            f"ring: {self.ring.describe()}",
            f"ideal: {self.ideal.render()}",
            f"max: {self.max_n}",
        ] + connected_lines(self.ring, self.connected, None)
        if self.mode == "degenerate":
            # I^(k-1) != I^k = (0): the power chain stops at the index
            head.append(f"stabilizes: at {self.nilpotency_index}")
            head.append(f"nilpotent: index {self.nilpotency_index}")
        else:
            head.append("stabilizes: no")
        tail = [f"verdict: {self.verdict}"]
        if self.note:
            tail.append(f"note: {self.note}")
        certs = [[f"n: {cert.level}"] + cert.lines() for cert in self.certificates]
        return [head] + certs + [tail]


def strong_generation_obstruction(I, max_n):
    """Either the nilpotent degeneration or a ladder of lower-bound
    certificates koszul(I^n) needing >= n levels for n = 2..max_n.
    Nilpotence is decided exactly, whatever max_n is.  The rungs share
    I's power ladder, so each power is computed once."""
    ring = I.ring
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    if I.is_zero_ideal():
        raise EngineError("obstruction needs a nonzero ideal")
    if not I.is_proper():
        raise EngineError("obstruction needs a proper ideal")
    connected, witness = is_connected_spec(ring)
    if connected is False:
        raise DisconnectedSpectrumError(
            ring.render(witness),
            f"idempotent {ring.render(witness)} found: the spectrum of "
            f"{ring.describe()} is disconnected",
        )
    if connected is None:
        raise ConnectednessUnknownError(
            f"connectedness of Spec {ring.describe()} undecided; "
            "cannot launch the obstruction"
        )
    nil = I.nilpotency_index()
    if nil is not None:
        return ObstructionReport(
            ring=ring,
            ideal=I,
            max_n=max_n,
            connected=True,
            mode="degenerate",
            nilpotency_index=nil,
            verdict="degenerate-nilpotent",
            note="the ideal is nilpotent, so V(I) = Spec R and the power "
            "chain collapses; the obstruction degenerates",
        )
    certs = [koszul_power_obstruction(I, n) for n in range(2, max_n + 1)]
    return ObstructionReport(
        ring=ring,
        ideal=I,
        max_n=max_n,
        connected=True,
        mode="obstruction",
        nilpotency_index=None,
        certificates=certs,
        verdict="not-strongly-generated",
        note="levels against a fixed Koszul generator grow without bound, "
        "so no single perfect complex strongly generates the category",
    )
