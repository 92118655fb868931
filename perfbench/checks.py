"""Output checks, made apart from the engine.

Every expected line is computed here from closed forms, from how the
input was built (workloads.py) or from exact arithmetic in arith.py.
No thickgen module is imported.  check_script raises CheckError at the
first line that does not match.
"""

import math
import re

import arith


class CheckError(Exception):
    pass


def split_blocks(text):
    return [block.split("\n") for block in text.strip("\n").split("\n\n")]


def _match(block, want, where):
    """want: list of (key, expected) with expected a string or a
    predicate on the value string."""
    got = [line.partition(": ") for line in block]
    if len(got) != len(want):
        raise CheckError(f"{where}: expected {len(want)} lines, got {len(got)}: {block}")
    for (key, _, value), (wkey, wval) in zip(got, want):
        if key != wkey:
            raise CheckError(f"{where}: expected key {wkey!r}, got {key!r}")
        ok = wval(value) if callable(wval) else value == wval
        if not ok:
            raise CheckError(f"{where}: bad {key}: {value!r}")


# ------------------------------------------------------------ principal data
#
# Over Z and F_p[x] / Q[x] an ideal is kept as its canonical generator
# (nonnegative integer; monic polynomial as a {factor: exponent} dict,
# {} for 1, None for 0).  Over Z/m it is kept as its cover generator
# c | m, with c = m the zero ideal.


class PID:
    """Principal-ideal bookkeeping for one Tier-1 ring of the checks."""

    def __init__(self, facts):
        self.kind = facts["kind"]
        self.m = facts.get("m")
        self.p = facts.get("p")
        self.ring = (
            arith.IntRing() if self.kind == "Z"
            else arith.ModRing(self.m) if self.kind == "Zmod"
            else arith.UPoly(self.p)
        )

    # ideals
    def zero(self):
        return self.m if self.kind == "Zmod" else (0 if self.kind == "Z" else None)

    def is_unit(self, a):
        return a == 1 if self.kind != "poly" else a == {}

    def lcm(self, a, b):
        if self.kind == "poly":
            if a is None or b is None:
                return None
            return {f: max(a.get(f, 0), b.get(f, 0)) for f in set(a) | set(b)}
        if self.kind == "Z":
            return 0 if 0 in (a, b) else math.lcm(a, b)
        return math.gcd(math.lcm(a, b), self.m)

    def power(self, a, k):
        if self.kind == "poly":
            return {f: e * k for f, e in a.items()}
        if self.kind == "Z":
            return a**k
        return math.gcd(a**k, self.m)

    def divides(self, a, b):
        """(b) <= (a)."""
        if self.kind == "poly":
            if b is None:
                return True
            if a is None:
                return False
            return all(b.get(f, 0) >= e for f, e in a.items())
        if self.kind == "Z":
            return b % a == 0 if a else b == 0
        return b % a == 0

    def primes(self, a):
        """Set of prime generators of V(a); None stands for all of Spec
        of a domain."""
        if self.kind == "poly":
            return None if a is None else set(a)
        if self.kind == "Z":
            return None if a == 0 else set(arith.factor_int(a))
        return set(arith.factor_int(a))

    def value(self, a):
        """Ring value of an ideal's canonical generator."""
        if self.kind == "poly":
            return () if a is None else arith.expand(self.ring, a)
        if self.kind == "Z":
            return a
        return a % self.m

    def parse_ideal(self, s):
        if not (s.startswith("(") and s.endswith(")")):
            raise CheckError(f"not a principal ideal: {s!r}")
        return self.ring.parse(s[1:-1])

    def same_ideal(self, s, a):
        try:
            return self.parse_ideal(s) == self.value(a)
        except ValueError:
            return False

    def subset_of_support(self, small, big):
        """V(small) <= V(big) for lists of component generators."""
        have = set()
        for c in big:
            pr = self.primes(c)
            if pr is None:
                return True
            have |= pr
        for c in small:
            pr = self.primes(c)
            if pr is None or not pr <= have:
                return False
        return True


def _koszul_gcd(facts):
    if facts["kind"] == "Z":
        return math.gcd(*facts["gens"])
    if facts["kind"] == "Zmod":
        return math.gcd(*facts["gens"], facts["m"])
    common = facts["factors"][0]
    for f in facts["factors"][1:]:
        common = arith.fmin(common, f)
    return common


def _modules(pid, facts):
    """{degree: (free rank, [invariant factors as canonical generators])}
    by closed form (Koszul complexes) or by construction."""
    if "homology" not in facts:
        d = _koszul_gcd(facts)
        if pid.kind == "Zmod":
            k = sum(1 for g in facts["gens"] if g % pid.m)
            counts = {-i: arith.binom(k, i) for i in range(k + 1)}
        else:
            k = len(facts["gens"]) if "gens" in facts else len(facts["factors"])
            counts = {-i: arith.binom(k - 1, i) for i in range(k + 1)}
        if pid.is_unit(d):
            return {n: (0, []) for n in counts}
        return {n: (0, [d] * c) for n, c in counts.items()}
    out = {}
    for n, h in facts["homology"].items():
        pieces = h["pieces"]
        if pid.kind == "Z":
            inv = arith.invariant_factors([abs(e) for e, role in pieces if role == "coker"])
            out[n] = (h["free"], inv)
        elif pid.kind == "Zmod":
            orders = [math.gcd(e, pid.m) for e, _ in pieces] + [pid.m] * h["free"]
            inv = arith.invariant_factors(orders)
            out[n] = (sum(1 for c in inv if c == pid.m), [c for c in inv if c != pid.m])
        else:
            inv = [fac for (_, fac), role in pieces if role == "coker" and fac]
            out[n] = (h["free"], inv)
    return out


def _module_ann(pid, free, factors):
    if free:
        return pid.zero()
    if not factors:
        return 1 if pid.kind != "poly" else {}
    return factors[-1]


def _total_ann(pid, modules):
    acc = 1 if pid.kind != "poly" else {}
    for free, factors in modules.values():
        acc = pid.lcm(acc, _module_ann(pid, free, factors))
    return acc


def _components(pid, modules):
    comps = []
    for free, factors in modules.values():
        a = _module_ann(pid, free, factors)
        if not pid.is_unit(a) and a not in comps:
            comps.append(a)
    return comps


def _parse_support(pid, s):
    if s == "empty":
        return []
    out = []
    for piece in s.split(" u "):
        if not piece.startswith("V"):
            raise CheckError(f"bad support component {piece!r}")
        out.append(pid.parse_ideal(piece[1:]))
    return out


def _key(v):
    return ",".join(map(str, v)) if isinstance(v, tuple) else str(v)


def _support_matches(pid, comps):
    want = sorted(_key(pid.value(c)) for c in comps)

    def ok(s):
        try:
            got = sorted(_key(v) for v in _parse_support(pid, s))
        except ValueError:
            return False
        return got == want

    return ok


def _primes_line(pid, comps):
    """Expected set of prime generators, or None for 'unresolved'."""
    if pid.kind == "Zmod":
        out = set()
        for c in comps:
            out |= set(arith.factor_int(c))
        return {p % pid.m for p in out}
    out = set()
    for c in comps:
        pr = pid.primes(c)
        if pr is None:
            return None
        out |= pr
    return out


def _primes_matches(pid, comps):
    want = _primes_line(pid, comps)

    def ok(s):
        if want is None:
            return s == "unresolved"
        if not s:
            return not want
        got = set()
        for piece in s.split(" ; "):
            got.add(pid.parse_ideal(piece))
        return got == want

    return ok


# ---------------------------------------------------------- per command


def _check_koszul(block, facts, where):
    pid = PID(facts)
    ring = pid.ring
    if pid.kind == "poly":
        # generators are known by their factorizations, up to units
        gens = [arith.expand(ring, f) for f in facts["factors"]]
    else:
        gens = [ring.const(g) for g in facts["gens"] if not ring.is_zero(ring.const(g))]
    norm = ring.monic if pid.kind == "poly" else (lambda x: x)
    d = _koszul_gcd(facts)

    def complex_ok(lit):
        mats, lo, hi = _parse_complex(ring, lit)
        k = len(gens)
        if (lo, hi) != (-k, 0) or len(mats[-1]) != 1:
            return False
        if [norm(x) for x in mats[-1][0]] != [norm(g) for g in gens]:
            return False
        for i in range(-k, 0):
            M = mats[i]
            if len(M) != arith.binom(k, -i - 1) or len(M[0]) != arith.binom(k, -i):
                return False
            if i + 1 < 0 and not _is_zero_product(ring, mats[i + 1], M):
                return False
        return True

    _match(
        block,
        [
            ("command", "koszul"),
            ("ideal", lambda s: pid.same_ideal(s, d)),
            ("complex", complex_ok),
            ("bound", lambda s: True),
        ],
        where,
    )


def _is_zero_product(ring, A, B):
    for row in A:
        for j in range(len(B[0])):
            acc = ring.zero()
            for k, a in enumerate(row):
                acc = ring.add(acc, ring.mul(a, B[k][j]))
            if not ring.is_zero(acc):
                return False
    return True


def _parse_complex(ring, lit):
    """{n: matrix rows} keyed by degree, plus the degree range."""
    body = lit.strip()
    if not (body.startswith("{ ") and body.endswith(" }")):
        raise CheckError(f"bad complex literal {lit!r}")
    parts = body[2:-2].split(" ; ")
    lo, _, hi = parts[0][len("deg "):].partition("..")
    mats = {}
    for part in parts[1:]:
        if not part.startswith("d("):
            continue
        n = int(part[2:part.index(")")])
        rows = part[part.index("= ") + 2:][2:-2].split("], [")
        mats[n] = [[ring.parse(x) for x in row.split(", ")] for row in rows]
    return mats, int(lo), int(hi)


def _check_homology(block, facts, where):
    pid = PID(facts)
    mods = _modules(pid, facts)
    want = [("command", "homology")]
    for n in _degrees(facts, mods):
        free, factors = mods[n]
        want.append((f"H({n})", _module_matches(pid, free, factors)))
    _match(block, want, where)


def _degrees(facts, mods):
    if "homology" in facts:
        return sorted(n for n, h in facts["homology"].items() if h["rank"])
    return sorted(mods)


def _module_matches(pid, free, factors):
    want_free = free
    want = [pid.value(f) for f in factors]

    def ok(s):
        got_free, got = 0, []
        if s != "0":
            for piece in re.split(r" \+ (?=R)", s):
                if piece == "R":
                    got_free += 1
                elif piece.startswith("R^"):
                    got_free += int(piece[2:])
                elif piece.startswith("R/"):
                    got.append(pid.parse_ideal(piece[2:]))
                else:
                    return False
        return got_free == want_free and got == want

    return ok


def _check_ann(block, facts, where):
    pid = PID(facts)
    a = _total_ann(pid, _modules(pid, facts))
    _match(block, [("command", "ann"), ("ann", lambda s: pid.same_ideal(s, a))], where)


def _check_support(block, facts, where):
    pid = PID(facts)
    comps = _components(pid, _modules(pid, facts))
    _match(
        block,
        [
            ("command", "support"),
            ("support", _support_matches(pid, comps)),
            ("primes", _primes_matches(pid, comps)),
        ],
        where,
    )


def _generator_ann(pid, gfacts):
    if gfacts["kind"] == "poly":
        return gfacts["factors"][0]
    if gfacts["kind"] == "Zmod":
        return math.gcd(gfacts["value"], gfacts["m"])
    return gfacts["value"]


def _check_thick_member(block, facts, where):
    pid = PID(facts["target"])
    comps_x = _components(pid, _modules(pid, facts["target"]))
    g = _generator_ann(pid, facts["generator"])
    member = pid.subset_of_support(comps_x, [g])
    _match(
        block,
        [
            ("command", "thick-member"),
            ("membership", "yes" if member else "no"),
            ("support-target", _support_matches(pid, comps_x)),
            ("support-generator", _support_matches(pid, [g])),
        ],
        where,
    )


def _check_level_lb(block, facts, where):
    pid = PID(facts["target"])
    mods = _modules(pid, facts["target"])
    a = _total_ann(pid, mods)
    g = _generator_ann(pid, facts["generator"])
    if not pid.subset_of_support([a], [g]):
        _match(
            block,
            [
                ("command", "level-lb"),
                ("kind", "not-in-thick"),
                ("membership", "no"),
                ("generator", lambda s: pid.same_ideal(f"({s})", g)),
                ("support-target", _support_matches(pid, _components(pid, mods))),
                ("support-generator", _support_matches(pid, [g])),
                ("note", lambda s: True),
            ],
            where,
        )
        return
    k = 1
    while not pid.divides(a, pid.power(g, k)):
        k += 1
    want = [
        ("command", "level-lb"),
        ("kind", "lower-bound"),
        ("level", str(k)),
        ("cones", str(k - 1)),
        ("generator-ann", lambda s: pid.same_ideal(s, g)),
        ("target-ann", lambda s: pid.same_ideal(s, a)),
    ]
    if k > 1:
        w = pid.power(g, k - 1)
        want.append(("generator", lambda s: pid.same_ideal(f"({s})", w)))
    else:
        want.append(("note", lambda s: True))
    _match(block, want, where)


def _check_witness_principal(block, facts, where):
    ring, x, n = facts["ring"], facts["x"], facts["n"]
    xn = ring.pow(x, n) if ring.is_poly else x**n
    target = "{ deg -1..0 ; d(-1) = [[" + ring.render(xn) + "]] }"
    _match(
        block,
        [
            ("command", "witness-principal"),
            ("element", ring.render(x)),
            ("power", str(n)),
            ("level", str(n)),
            ("cones", str(n - 1)),
            ("target", target),
            ("bound", "W"),
        ],
        where,
    )


def _check_validate_witness(block, facts, where):
    n = facts["n"]
    _match(
        block,
        [("command", "validate-witness"), ("valid", "yes"), ("level", str(n)), ("cones", str(n - 1))],
        where,
    )


def _check_spec(block, facts, where):
    kind = facts["kind"]
    if kind == "Zmod":
        m = facts["m"]
        primes = sorted(arith.factor_int(m))
        connected = len(primes) == 1
        want = [("command", "spec"), ("ring", f"Z/{m}"), ("connected", "yes" if connected else "no")]
        if not connected:
            want.append(("idempotent", lambda s: int(s) not in (0, 1) and int(s) ** 2 % m == int(s)))
        want.append(("points", " ; ".join(f"({p % m})" for p in primes)))
    elif kind == "Z":
        want = [("command", "spec"), ("ring", "Z"), ("connected", "yes"), ("note", lambda s: True)]
    else:
        name = "Q" if facts["p"] == 0 else f"F{facts['p']}"
        want = [("command", "spec"), ("ring", f"{name}[x]"), ("connected", "yes"), ("note", lambda s: True)]
    _match(block, want, where)


def _check_idempotents(block, facts, where):
    if facts["kind"] == "Zmod":
        m = facts["m"]
        want = {str(e) for e in range(m) if e * e % m == e}
    else:
        want = {"0", "1"}
    _match(
        block,
        [("command", "idempotents"), ("idempotents", lambda s: set(s.split(" ")) == want and len(s.split(" ")) == len(want))],
        where,
    )


# ------------------------------------------------------------ obstruct


def _obstruct_head(facts, describe, ideal_ok, stabilized):
    want = [
        ("command", "obstruct"),
        ("ring", describe),
        ("ideal", ideal_ok),
        ("max", str(facts["max"])),
        ("connected", "yes"),
    ]
    if stabilized is None:
        want.append(("stabilizes", "no"))
    else:
        want.append(("stabilizes", f"at {stabilized}"))
        want.append(("nilpotent", f"index {stabilized}"))
    return want


def _cert_want(n, gen_ok, target_ok, witness_ok):
    return [
        ("n", str(n)),
        ("kind", "lower-bound"),
        ("level", str(n)),
        ("cones", str(n - 1)),
        ("generator-ann", gen_ok),
        ("target-ann", target_ok),
        ("generator", witness_ok),
        ("note", lambda s: True),
    ]


def _obstruct_tail(verdict):
    return [("verdict", verdict), ("note", lambda s: True)]


def _consume_ladder(blocks, facts, head, cert_for, where):
    max_n = facts["max"]
    need = 1 + (max_n - 1) + 1
    if len(blocks) < need:
        raise CheckError(f"{where}: ladder has {len(blocks)} blocks, expected {need}")
    _match(blocks[0], head, where)
    for n in range(2, max_n + 1):
        _match(blocks[n - 1], cert_for(n), f"{where} n={n}")
    _match(blocks[max_n], _obstruct_tail("not-strongly-generated"), where)
    return need


def _check_obstruct_multi(blocks, facts, where):
    names, weights, gens, p = facts["names"], facts["weights"], facts["gens"], facts["p"]
    field_name = "Q" if p == 0 else f"F{p}"
    powers = {}

    def power(n):
        if n not in powers:
            powers[n] = arith.power_gens(gens, n, p)
        return powers[n]

    def parse_ideal(s):
        if not (s.startswith("(") and s.endswith(")")):
            raise CheckError(f"not an ideal literal: {s!r}")
        return [arith.parse_multi(x, names, p) for x in s[1:-1].split(", ")]

    seen = {}

    def same_as_input(s):
        if s not in seen:
            basis = parse_ideal(s)
            seen[s] = all(arith.weighted_member(b, gens, weights, p) for b in basis) and all(
                arith.weighted_member(g, basis, weights, p) for g in gens
            )
        return seen[s]

    def is_power(s, n):
        basis = parse_ideal(s)
        return all(arith.weighted_member(b, power(n), weights, p) for b in basis) and all(
            arith.weighted_member(g, basis, weights, p) for g in power(n)
        )

    def witness(n):
        def ok(s):
            w = arith.parse_multi(s, names, p)
            return arith.weighted_member(
                w, power(n - 1), weights, p
            ) and not arith.weighted_member(w, power(n), weights, p)

        return ok

    describe = lambda s: s.startswith(f"{field_name}[{','.join(names)}] (")
    head = _obstruct_head(facts, describe, same_as_input, None)
    cert = lambda n: _cert_want(n, same_as_input, lambda s: is_power(s, n), witness(n))
    return _consume_ladder(blocks, facts, head, cert, where)


def _check_obstruct_principal(blocks, facts, where):
    ring = facts["ring"]
    a = facts["gen"]
    if ring.is_poly:
        a = ring.monic(a)
        power = ring.pow
        divides = ring.divides
        describe = ("Q" if ring.p == 0 else f"F{ring.p}") + "[x]"
    else:
        a = abs(a)
        power = lambda x, k: x**k
        divides = lambda x, y: y % x == 0
        describe = "Z"

    def ideal_is(v):
        return lambda s: s == f"({ring.render(v)})"

    def witness(n):
        def ok(s):
            w = ring.parse(s)
            return divides(power(a, n - 1), w) and not divides(power(a, n), w)

        return ok

    head = _obstruct_head(facts, describe, ideal_is(a), None)
    cert = lambda n: _cert_want(n, ideal_is(a), ideal_is(power(a, n)), witness(n))
    return _consume_ladder(blocks, facts, head, cert, where)


def _check_obstruct_nilpotent(blocks, facts, where):
    m, p, j = facts["m"], facts["p"], facts["j"]
    if len(blocks) < 2:
        raise CheckError(f"{where}: expected a degenerate report")
    head = _obstruct_head(facts, f"Z/{m}", f"({p**j})", facts["index"])
    _match(blocks[0], head, where)
    _match(blocks[1], _obstruct_tail("degenerate-nilpotent"), where)
    return 2


def _check_nilpotence(block, facts, where):
    m, p, j, t, max_n = facts["m"], facts["p"], facts["j"], facts["index"], facts["max"]
    stab = f"at {t}" if t <= max_n else "no"
    nil = f"index {t}" if t <= max_n + 1 else "no"
    verdict = "nilpotent-as-required" if t <= max_n else "no-stabilization-within-bound"
    _match(
        block,
        [
            ("command", "nilpotence"),
            ("ring", f"Z/{m}"),
            ("ideal", f"({p**j})"),
            ("max", str(max_n)),
            ("connected", "yes"),
            ("stabilizes", stab),
            ("nilpotent", nil),
            ("verdict", verdict),
        ],
        where,
    )


SINGLE = {
    "koszul": _check_koszul,
    "homology": _check_homology,
    "ann": _check_ann,
    "support": _check_support,
    "thick-member": _check_thick_member,
    "level-lb": _check_level_lb,
    "witness-principal": _check_witness_principal,
    "validate-witness": _check_validate_witness,
    "spec": _check_spec,
    "idempotents": _check_idempotents,
    "nilpotence": _check_nilpotence,
}

MULTI = {
    "obstruct-multi": _check_obstruct_multi,
    "obstruct-principal": _check_obstruct_principal,
    "obstruct-nilpotent": _check_obstruct_nilpotent,
}


def check_script(script, text):
    """Raise CheckError unless text is the right --machine output for
    the script."""
    try:
        _check_blocks(script, split_blocks(text))
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        raise CheckError(f"{script.name}: unreadable output ({exc!r})")


def _check_blocks(script, blocks):
    pos = 0
    for i, (kind, facts) in enumerate(script.expect):
        where = f"{script.name} step {i} ({kind})"
        if kind in MULTI:
            pos += MULTI[kind](blocks[pos:], facts, where)
            continue
        if pos >= len(blocks):
            raise CheckError(f"{where}: output ended early")
        SINGLE[kind](blocks[pos], facts, where)
        pos += 1
    if pos != len(blocks):
        raise CheckError(f"{script.name}: {len(blocks) - pos} unexpected trailing blocks")
