"""Polynomial payload arithmetic.

Payloads are plain immutable data; every function takes the coefficient
field as its first argument (any object with zero/one/add/neg/sub/mul/
inv_unit/is_zero on payloads, i.e. a field Ring from rings.py).

Univariate: tuple of coefficients, constant term first, no trailing
zeros; () is the zero polynomial.

Multivariate: tuple of (exponent tuple, coefficient) pairs, sorted
descending by the monomial order key, no zero coefficients; () is zero.
"""

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


def uni_lc(f):
    return f[-1]


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
    lc_inv = F.inv_unit(uni_lc(g))
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
    u = F.inv_unit(uni_lc(f))
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

# monomial order keys on exponent tuples; bigger key = bigger monomial


def key_lex(exp):
    return exp


def key_grevlex(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


ORDER_KEYS = {"lex": key_lex, "grevlex": key_grevlex}


def exp_mul(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


def exp_divides(e1, e2):
    """True when x^e1 divides x^e2."""
    return all(a <= b for a, b in zip(e1, e2))


def exp_div(e1, e2):
    """Exponent of x^e1 / x^e2; assumes divisibility."""
    return tuple(a - b for a, b in zip(e1, e2))


def exp_lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def exp_deg(e):
    return sum(e)


def m_canon(F, terms, key):
    """Combine like terms, drop zeros, sort descending by the order key."""
    acc = {}
    for exp, c in terms:
        if exp in acc:
            acc[exp] = F.add(acc[exp], c)
        else:
            acc[exp] = c
    out = [(e, c) for e, c in acc.items() if not F.is_zero(c)]
    out.sort(key=lambda t: key(t[0]), reverse=True)
    return tuple(out)


def m_const(F, nvars, c):
    if F.is_zero(c):
        return ()
    return (((0,) * nvars, c),)


def m_var(F, nvars, i):
    exp = tuple(1 if j == i else 0 for j in range(nvars))
    return ((exp, F.one()),)


def m_add(F, f, g, key):
    return m_canon(F, list(f) + list(g), key)


def m_neg(F, f):
    return tuple((e, F.neg(c)) for e, c in f)


def m_sub(F, f, g, key):
    return m_add(F, f, m_neg(F, g), key)


def m_scale(F, c, f):
    if F.is_zero(c):
        return ()
    return tuple((e, F.mul(c, a)) for e, a in f)


def m_term_mul(F, exp, c, f):
    return tuple((exp_mul(exp, e), F.mul(c, a)) for e, a in f)


def m_mul(F, f, g, key):
    terms = []
    for e1, c1 in f:
        for e2, c2 in g:
            terms.append((exp_mul(e1, e2), F.mul(c1, c2)))
    return m_canon(F, terms, key)


def m_lt(f):
    """Leading (exp, coeff); payload is sorted descending."""
    return f[0]


def m_monic(F, f):
    if not f:
        return ()
    u = F.inv_unit(f[0][1])
    return m_scale(F, u, f)


def m_total_deg(f):
    return max(exp_deg(e) for e, _ in f) if f else -1
