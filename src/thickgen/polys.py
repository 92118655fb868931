"""Polynomial payload arithmetic.

Payloads are plain immutable data; every function takes the coefficient
field as its first argument (any object with zero/one/add/neg/sub/mul/
inv_unit/is_zero on payloads, i.e. a field Ring from rings.py).

Univariate: tuple of coefficients, constant term first, no trailing
zeros; () is the zero polynomial.

Multivariate: tuple of (monomial, coefficient) pairs, sorted descending
by the monomial order, no zero coefficients; () is zero.  A monomial is
one int laid out by the ring's Monomials: a 64-bit field per exponent,
whose top (guard) bit stays clear, so exponents run up to EXP_LIMIT =
2^63 - 1, plus a total-degree field (Monagan-Pearce, J. Symbolic
Comput. 46, 2011).  Products are +, divisibility one mask test, and
the order key one XOR.
"""

from .errors import ExponentLimitError

# ---------------------------------------------------------------- univariate


def uni_trim(coeffs, F):
    coeffs = list(coeffs)
    while coeffs and F.is_zero(coeffs[-1]):
        coeffs.pop()
    return tuple(coeffs)


def uni_deg(f):
    """Degree, with the zero polynomial at -1."""
    return len(f) - 1


def uni_const(F, c):
    return () if F.is_zero(c) else (c,)


def uni_x(F):
    return (F.zero(), F.one())


def uni_add(F, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else F.zero()
        b = g[i] if i < len(g) else F.zero()
        out.append(F.add(a, b))
    return uni_trim(out, F)


def uni_neg(F, f):
    return tuple(F.neg(c) for c in f)


def uni_scale(F, c, f):
    if F.is_zero(c):
        return ()
    return uni_trim([F.mul(c, a) for a in f], F)


def uni_mul(F, f, g):
    if not f or not g:
        return ()
    out = [F.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if F.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return uni_trim(out, F)


def uni_divmod(F, f, g):
    """Division with remainder; g must be nonzero (field coefficients)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    lc_inv = F.inv_unit(g[-1])
    rem = list(f)
    dq = len(f) - len(g)
    if dq < 0:
        return (), f
    quo = [F.zero()] * (dq + 1)
    for i in range(dq, -1, -1):
        top = rem[i + len(g) - 1]
        if F.is_zero(top):
            continue
        c = F.mul(top, lc_inv)
        quo[i] = c
        for j, b in enumerate(g):
            rem[i + j] = F.sub(rem[i + j], F.mul(c, b))
    return uni_trim(quo, F), uni_trim(rem, F)


def uni_monic(F, f):
    """(monic associate, unit u) with u*f monic; zero maps to (0, 1)."""
    if not f:
        return (), F.one()
    u = F.inv_unit(f[-1])
    return uni_scale(F, u, f), u


def uni_gcd(F, f, g):
    """Monic gcd."""
    while g:
        f, g = g, uni_divmod(F, f, g)[1]
    return uni_monic(F, f)[0]


def uni_derivative(F, f):
    out = []
    for i in range(1, len(f)):
        out.append(F.mul(F.from_int(i), f[i]))
    return uni_trim(out, F)


def uni_eval(F, f, point):
    acc = F.zero()
    for c in reversed(f):
        acc = F.add(F.mul(acc, point), c)
    return acc


# -------------------------------------------------------------- multivariate

FIELD_BITS = 64
EXP_LIMIT = (1 << (FIELD_BITS - 1)) - 1  # the largest exponent of one variable


class Monomials:
    """The packed monomials of one ring: nvars variables in one order."""

    __slots__ = ("shifts", "deg_shift", "deg_mask", "exp_bits", "guards", "key")

    def __init__(self, nvars, order):
        # From the top, grevlex reads [deg | e_n | ... | e_1] and lex
        # [e_1 | ... | e_n | deg], so the order key is one XOR: every
        # exponent complemented under grevlex, the int itself under lex.
        # The degree field is wide enough that adding two monomials
        # never carries out of it.
        deg_bits = FIELD_BITS + nvars.bit_length()
        if order == "grevlex":
            self.shifts = tuple(FIELD_BITS * i for i in range(nvars))
            self.deg_shift = FIELD_BITS * nvars
        elif order == "lex":
            self.shifts = tuple(deg_bits + FIELD_BITS * i for i in reversed(range(nvars)))
            self.deg_shift = 0
        else:
            raise ValueError(f"unknown monomial order {order!r}")
        self.deg_mask = (1 << deg_bits) - 1
        self.exp_bits = sum(EXP_LIMIT << s for s in self.shifts)
        self.guards = sum(1 << (s + FIELD_BITS - 1) for s in self.shifts)
        # bigger key = bigger monomial; the key is its own inverse
        self.key = (self.exp_bits if order == "grevlex" else 0).__xor__

    def pack(self, exps):
        if not all(0 <= e <= EXP_LIMIT for e in exps):
            raise ExponentLimitError(f"exponents must lie in 0..{EXP_LIMIT}")
        m = sum(exps) << self.deg_shift
        for e, s in zip(exps, self.shifts):
            m |= e << s
        return m

    def unpack(self, m):
        return tuple(m >> s & EXP_LIMIT for s in self.shifts)

    def deg(self, m):
        return m >> self.deg_shift & self.deg_mask

    def check(self, m):
        """Raise ExponentLimitError when m, an OR of sums of two
        monomials, has a guard bit set: an exponent of a sum passed
        EXP_LIMIT.  Two exponents sum below 2^FIELD_BITS, so a sum never
        carries past its guard."""
        if m & self.guards:
            raise ExponentLimitError(f"a monomial exponent exceeds the limit {EXP_LIMIT}")

    def div(self, a, b):
        """a / b; assumes b divides a."""
        return a - b

    def divides(self, a, b):
        """True when the monomial a divides b: no field of b - a borrows
        through its guard.  Under lex a borrow out of the degree field
        below only clears a guard, and then some exponent of a is
        larger."""
        guards = self.guards
        return (b | guards) - a & guards == guards

    def first_divisor(self, lms, m):
        """Index of the first monomial of the list lms that divides m,
        or None; divides() over the list, without a call per test."""
        guards = self.guards
        b = m | guards
        for i, a in enumerate(lms):
            if b - a & guards == guards:
                return i
        return None

    def lcm(self, a, b):
        guards = self.guards
        ge = (a | guards) - b & guards  # guard set where a's exponent >= b's
        take_a = ge - (ge >> (FIELD_BITS - 1))
        m = a & take_a | b & (self.exp_bits ^ take_a)
        return m | sum(m >> s & EXP_LIMIT for s in self.shifts) << self.deg_shift


def m_canon(F, terms, M):
    """Combine like terms, drop zeros, sort descending by the order key."""
    acc = {}
    for m, c in terms:
        if m in acc:
            acc[m] = F.add(acc[m], c)
        else:
            acc[m] = c
    return tuple((m, acc[m]) for m in sorted(acc, key=M.key, reverse=True) if not F.is_zero(acc[m]))


def m_const(F, c):
    if F.is_zero(c):
        return ()
    return ((0, c),)


def m_extend(f, M, wider):
    """f re-packed for wider, a layout of the same order whose first
    variables are M's; the new trailing variables get exponent 0."""
    pad = (0,) * (len(wider.shifts) - len(M.shifts))
    return tuple((wider.pack(M.unpack(m) + pad), c) for m, c in f)


def m_add(F, f, g, M):
    return m_canon(F, (*f, *g), M)


def m_neg(F, f):
    return tuple((m, F.neg(c)) for m, c in f)


def m_sub(F, f, g, M):
    return m_add(F, f, m_neg(F, g), M)


def m_scale(F, c, f):
    if F.is_zero(c):
        return ()
    return tuple((m, F.mul(c, a)) for m, a in f)


def m_term_mul(F, M, e, c, f):
    """c * x^e * f, in f's order."""
    out = []
    seen = 0
    for m, a in f:
        m += e
        seen |= m
        out.append((m, F.mul(c, a)))
    M.check(seen)
    return tuple(out)


def m_mul(F, f, g, M):
    terms = []
    seen = 0
    for e1, c1 in f:
        for e2, c2 in g:
            m = e1 + e2
            seen |= m
            terms.append((m, F.mul(c1, c2)))
    M.check(seen)
    return m_canon(F, terms, M)


def m_monic(F, f):
    if not f:
        return ()
    u = F.inv_unit(f[0][1])
    return m_scale(F, u, f)


def m_total_deg(f, M):
    return max(M.deg(m) for m, _ in f) if f else -1
