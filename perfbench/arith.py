"""Exact arithmetic for building inputs and checking outputs.

Nothing here imports thickgen: the answers the benchmark checks against
come from this module, from closed forms, or from how an input was
built, never from the engine under test.

Rings are small value objects with the operations the generators and
the checks need:

  IntRing        Z, elements are ints
  ModRing(m)     Z/m, elements are ints in [0, m)
  UPoly(p)       Q[x] (p = 0, Fraction coefficients) or F_p[x]; elements
                 are coefficient tuples, lowest degree first, trimmed

Multivariate polynomials (for the Groebner workload) are dicts from
exponent tuples to coefficients over Q (p = 0) or F_p.
"""

import math
from fractions import Fraction


# ------------------------------------------------------------- integers


def factor_int(n):
    """{prime: exponent} of |n| by trial division; {} for 0 and 1."""
    n = abs(n)
    out = {}
    d = 2
    while n > 1 and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders):
    """Invariant factors (ascending, units dropped) of the finite abelian
    group that is the direct sum of Z/c over c in orders, by grouping
    prime powers: a method apart from any Smith form."""
    by_prime = {}
    for c in orders:
        for p, e in factor_int(c).items():
            by_prime.setdefault(p, []).append(e)
    if not by_prime:
        return []
    width = max(len(v) for v in by_prime.values())
    out = [1] * width
    for p, exps in by_prime.items():
        exps = sorted(exps, reverse=True)
        for i, e in enumerate(exps):
            out[i] *= p**e
    return sorted(c for c in out if c != 1)


# --------------------------------------------------- univariate polynomials


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class IntRing:
    dsl = "Z"
    is_poly = False

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def const(self, k):
        return k

    def render(self, a):
        return str(a)

    def parse(self, s):
        return int(s)

    def __eq__(self, other):
        return isinstance(other, IntRing)

    def __hash__(self):
        return hash("Z")


class ModRing:
    is_poly = False

    def __init__(self, m):
        self.m = m
        self.dsl = f"Zmod {m}"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def is_zero(self, a):
        return a % self.m == 0

    def const(self, k):
        return k % self.m

    def render(self, a):
        return str(a % self.m)

    def parse(self, s):
        return int(s) % self.m

    def __eq__(self, other):
        return isinstance(other, ModRing) and other.m == self.m

    def __hash__(self):
        return hash(("Zmod", self.m))


class UPoly:
    """Q[x] for p = 0, else F_p[x]."""

    is_poly = True

    def __init__(self, p, var="x"):
        self.p = p
        self.var = var
        field = "Q" if p == 0 else f"F{p}"
        self.dsl = f"poly {field} [{var}]"

    # coefficient field
    def c(self, k):
        return Fraction(k) if self.p == 0 else k % self.p

    def c_inv(self, a):
        return 1 / Fraction(a) if self.p == 0 else pow(a, -1, self.p)

    def c_norm(self, a):
        return a if self.p == 0 else a % self.p

    # ring operations
    def zero(self):
        return ()

    def one(self):
        return (self.c(1),)

    def const(self, k):
        return _trim((self.c(k),))

    def x(self):
        return (self.c(0), self.c(1))

    def add(self, a, b):
        n = max(len(a), len(b))
        a = list(a) + [0] * (n - len(a))
        b = list(b) + [0] * (n - len(b))
        return _trim(self.c_norm(x + y) for x, y in zip(a, b))

    def sub(self, a, b):
        return self.add(a, tuple(self.c_norm(-y) for y in b))

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _trim(self.c_norm(z) for z in out)

    def pow(self, a, k):
        out = self.one()
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def is_zero(self, a):
        return not a

    def divmod(self, a, b):
        if not b:
            raise ZeroDivisionError("division by the zero polynomial")
        r = list(a)
        q = [self.c(0)] * max(0, len(a) - len(b) + 1)
        lead_inv = self.c_inv(b[-1])
        while len(_trim(r)) >= len(b):
            r = list(_trim(r))
            shift = len(r) - len(b)
            coef = self.c_norm(r[-1] * lead_inv)
            q[shift] = coef
            for i, bc in enumerate(b):
                r[shift + i] = self.c_norm(r[shift + i] - coef * bc)
        return _trim(q), _trim(r)

    def divides(self, a, b):
        """a | b."""
        if not a:
            return not b
        return not self.divmod(b, a)[1]

    def monic(self, a):
        if not a:
            return a
        inv = self.c_inv(a[-1])
        return tuple(self.c_norm(x * inv) for x in a)

    def render(self, a):
        """The engine's own literal form, which its parser accepts."""
        return render_multi({(d,): c for d, c in enumerate(a) if c != 0}, (self.var,), self.p)

    def parse(self, s):
        poly = parse_multi(s, (self.var,), self.p)
        deg = max((e[0] for e in poly), default=-1)
        return _trim(poly.get((d,), self.c(0)) for d in range(deg + 1))

    def __eq__(self, other):
        return isinstance(other, UPoly) and other.p == self.p

    def __hash__(self):
        return hash(("poly1", self.p))


# ------------------------------------------------ factored univariate data


def expand(ring, factors, unit=1):
    """unit * prod f^e over the {coefficient tuple: exponent} items."""
    out = ring.const(unit)
    for f, e in factors.items():
        out = ring.mul(out, ring.pow(f, e))
    return out


def fmin(a, b):
    """gcd of two factored monic polynomials (or factored integers)."""
    return {f: min(e, b[f]) for f, e in a.items() if f in b and min(e, b[f]) > 0}


def irreducibles(ring, count_quadratic):
    """Known irreducible monic factors: linear ones, then quadratics.

    Over F_p the quadratics are found by brute force (no roots); over Q
    x^2 + 1 is the only quadratic offered."""
    lin = []
    if ring.p == 0:
        for r in (-3, -2, -1, 1, 2, 3):
            lin.append((ring.c(-r), ring.c(1)))
        quad = [(ring.c(1), ring.c(0), ring.c(1))]
        return lin, quad
    p = ring.p
    for r in range(p):
        lin.append((ring.c(-r), ring.c(1)))
    quad = []
    for b in range(p):
        for c in range(p):
            if all((t * t + b * t + c) % p for t in range(p)):
                quad.append((c, b, 1))
                if len(quad) >= count_quadratic:
                    return lin, quad
    return lin, quad


# ------------------------------------------------------ multivariate polys


def parse_multi(s, names, p):
    """Parse the engine's rendering of a polynomial in the named
    variables into {exponent tuple: coefficient}."""
    index = {v: i for i, v in enumerate(names)}
    s = s.strip()
    out = {}
    if s == "0":
        return out
    for term in s.replace(" - ", " + -").split(" + "):
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:]
        coef = Fraction(1)
        exp = [0] * len(names)
        for piece in term.split("*"):
            if piece[0].isdigit():
                coef *= Fraction(piece)
                continue
            var, _, e = piece.partition("^")
            if var not in index:
                raise ValueError(f"unknown variable {var!r} in {s!r}")
            exp[index[var]] += int(e) if e else 1
        coef *= sign
        if p:
            if coef.denominator != 1:
                raise ValueError(f"fraction in a prime-field polynomial: {s!r}")
            coef = int(coef) % p
        exp = tuple(exp)
        out[exp] = out.get(exp, 0) + coef
    return {e: c for e, c in out.items() if c != 0}


def render_multi(poly, names, p):
    """DSL literal of a polynomial, terms in descending exponent order
    (for one variable that is how the engine renders its own)."""
    if not poly:
        return "0"
    parts = []
    for exp in sorted(poly, reverse=True):
        c = poly[exp]
        negative = p == 0 and c < 0
        mag = str(-c if negative else c)
        mono = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in zip(names, exp) if e
        )
        body = mag if not mono else (mono if mag == "1" else f"{mag}*{mono}")
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)


def m_mul(f, g, p):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    if p:
        return {e: c % p for e, c in out.items() if c % p}
    return {e: c for e, c in out.items() if c != 0}


def wdeg(exp, weights):
    return sum(a * w for a, w in zip(exp, weights))


def monomials_of_wdeg(nvars, weights, total):
    """All exponent tuples of weighted degree exactly total."""
    out = []

    def rec(i, left, prefix):
        if i == nvars - 1:
            if left % weights[i] == 0:
                out.append(tuple(prefix + [left // weights[i]]))
            return
        for a in range(left // weights[i] + 1):
            rec(i + 1, left - a * weights[i], prefix + [a])

    if total >= 0:
        rec(0, total, [])
    return out


def in_span(columns, target, p):
    """Is target a linear combination of the columns (dicts from
    monomials to coefficients)?  Exact Gauss-Jordan elimination over Q
    (p = 0) or F_p."""

    def norm(c):
        return c % p if p else c

    def inv(c):
        return pow(c, -1, p) if p else 1 / Fraction(c)

    pivots = {}  # monomial -> reduced column with a leading 1 there
    for col in columns:
        v = {m: norm(c) for m, c in col.items() if norm(c) != 0}
        v = _reduce(v, pivots, norm)
        if v:
            lead = max(v)
            s = inv(v[lead])
            pivots[lead] = {m: norm(c * s) for m, c in v.items()}
    rest = _reduce(
        {m: norm(c) for m, c in target.items() if norm(c) != 0}, pivots, norm
    )
    return not rest


def _reduce(v, pivots, norm):
    v = dict(v)
    while v:
        hits = [m for m in v if m in pivots]
        if not hits:
            return v
        m = max(hits)
        c = v[m]
        for k, x in pivots[m].items():
            y = norm(v.get(k, 0) - c * x)
            if y:
                v[k] = y
            else:
                v.pop(k, None)
    return v


def power_gens(gens, n, p):
    """Products of n generators (with repetition): generators of I^n."""
    if n == 0:
        nvars = len(next(iter(gens[0])))
        return [{(0,) * nvars: 1}]
    out = []

    def rec(start, left, acc):
        if left == 0:
            out.append(acc)
            return
        for i in range(start, len(gens)):
            rec(i, left - 1, m_mul(acc, gens[i], p))

    nvars = len(next(iter(gens[0])))
    rec(0, n, {(0,) * nvars: Fraction(1) if not p else 1})
    return out


def weighted_member(f, gens, weights, p):
    """Exact membership of f in the ideal generated by gens, all of which
    are homogeneous for the positive weights: each weighted component
    of f must lie in the span of monomial multiples of the generators
    in that weighted degree."""
    if not f:
        return True
    nvars = len(weights)
    gdeg = []
    for g in gens:
        degs = {wdeg(e, weights) for e in g}
        if len(degs) != 1:
            raise ValueError("generator is not weighted homogeneous")
        gdeg.append(degs.pop())
    parts = {}
    for e, c in f.items():
        parts.setdefault(wdeg(e, weights), {})[e] = c
    for total, part in parts.items():
        cols = []
        for g, dg in zip(gens, gdeg):
            for mono in monomials_of_wdeg(nvars, weights, total - dg):
                cols.append({tuple(a + b for a, b in zip(mono, e)): c for e, c in g.items()})
        if not in_span(cols, part, p):
            return False
    return True


def binom(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0
