"""Independent cross-check oracles, stdlib only.

Nothing here imports the package under test, and the algorithms are
chosen to be different from the engine's: invariant factors come from
gcds of k x k minors (not elimination), determinants from fraction-free
Bareiss, multivariate arithmetic from exponent dicts (not sorted term
tuples), and ideal membership from the consistency of a degree-bounded
linear system over the rationals, decided by fraction-free Bareiss
elimination (not Groebner bases), and reduced Groebner bases from
Buchberger's algorithm with every S-pair taken and fully reduced (no
pair criteria, no sugar order).
"""

import itertools
import math
from fractions import Fraction

# ------------------------------------------------------ rational matrices


def rat_rank(rows):
    """Rank over Q by Gaussian elimination on Fraction copies."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def rat_consistent(rows, rhs):
    """Whether A x = b has a solution over Q.  Each row of [A | b] is
    scaled to integers, then fraction-free Bareiss elimination runs over
    the columns of A; b must vanish in every row left without a pivot."""
    aug = []
    for row, b in zip(rows, rhs):
        entries = [Fraction(x) for x in row] + [Fraction(b)]
        scale = math.lcm(*(x.denominator for x in entries))
        aug.append([x.numerator * (scale // x.denominator) for x in entries])
    ncols = len(rows[0]) if rows else 0
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(aug)) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        top = aug[rank]
        p = top[col]
        for r in range(rank + 1, len(aug)):
            a = aug[r][col]
            aug[r] = [(p * x - a * y) // prev for x, y in zip(aug[r], top)]
        prev = p
        rank += 1
    return all(row[-1] == 0 for row in aug[rank:])


def int_det(rows):
    """Exact integer determinant, fraction-free Bareiss."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor_gcd_invariants(rows):
    """Invariant factors of an integer matrix from gcds of k x k minors:
    d_k = g_k / g_(k-1) with g_k the gcd over all k x k subdeterminants.
    Nonnegative, zeros trimmed."""
    if not rows or not rows[0]:
        return []
    nrows, ncols = len(rows), len(rows[0])
    out = []
    prev = 1
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rsel in itertools.combinations(range(nrows), k):
            for csel in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, abs(int_det(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


# -------------------------------------------------- dict-based polynomials


def mp_zero():
    return {}


def mp_const(c, nvars):
    c = Fraction(c)
    return {} if c == 0 else {(0,) * nvars: c}


def mp_var(i, nvars):
    exp = [0] * nvars
    exp[i] = 1
    return {tuple(exp): Fraction(1)}


def mp_add(f, g):
    out = dict(f)
    for e, c in g.items():
        s = out.get(e, Fraction(0)) + c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def mp_scale(f, c):
    c = Fraction(c)
    if c == 0:
        return {}
    return {e: v * c for e, v in f.items()}


def mp_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def mp_pow(f, n):
    nvars = len(next(iter(f))) if f else 0
    acc = mp_const(1, nvars)
    for _ in range(n):
        acc = mp_mul(acc, f)
    return acc


def mp_total_deg(f):
    return max((sum(e) for e in f), default=-1)


def monomials_up_to(nvars, bound):
    """All exponent tuples of total degree <= bound, stable order."""
    out = []
    for total in range(bound + 1):
        for e in itertools.product(range(total + 1), repeat=nvars):
            if sum(e) == total:
                out.append(e)
    return out


def linear_membership(f, gens, nvars, deg_bound):
    """Does f lie in (gens) with multiplier degrees <= deg_bound?  Sets
    up sum_i h_i g_i = f as a linear system over Q and decides whether
    it is consistent.  Only a one-sided check: True is conclusive, False
    only within the bound."""
    cols = []
    keys = set(f)
    mons = monomials_up_to(nvars, deg_bound)
    for g in gens:
        for mon in mons:
            prod = mp_mul({mon: Fraction(1)}, g)
            cols.append(prod)
            keys.update(prod)
    key_order = sorted(keys)
    A = [[col.get(k, Fraction(0)) for col in cols] for k in key_order]
    b = [f.get(k, Fraction(0)) for k in key_order]
    return rat_consistent(A, b)


# ------------------------------------- Groebner bases with every pair taken


def monomial_order_key(order):
    """Sort key on exponent tuples: a larger key is a larger monomial.
    grevlex compares total degree, then makes the monomial with the
    larger power of the last variable smaller."""
    if order == "lex":
        return lambda e: e
    if order == "grevlex":
        return lambda e: (sum(e), [-a for a in reversed(e)])
    raise ValueError(order)


def all_pairs_groebner(gens, order, p=None):
    """Reduced Groebner basis of dict polynomials, by Buchberger's
    algorithm with no pair criteria and no selection strategy: every
    pair of elements is taken, oldest first, and its S-polynomial is
    fully reduced (every term, not only the leading one).  Coefficients
    are Fractions, or residues mod the prime p when p is given.  Returns
    monic dicts sorted by descending leading monomial."""
    key = monomial_order_key(order)

    def norm(c):
        return c if p is None else c % p

    def inv(c):
        return 1 / c if p is None else pow(c, -1, p)

    def lead(f):
        return max(f, key=key)

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def monic(f):
        u = inv(f[lead(f)])
        return {e: norm(c * u) for e, c in f.items()}

    def sub_multiple(f, c, shift, g):
        """f - c * x^shift * g."""
        out = dict(f)
        for e, v in g.items():
            m = tuple(a + b for a, b in zip(shift, e))
            s = norm(out.get(m, 0) - c * v)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return out

    def reduce(f, basis):
        rem, out = dict(f), {}
        while rem:
            e = lead(rem)
            g = next((g for g in basis if divides(lead(g), e)), None)
            if g is None:
                out[e] = rem.pop(e)
            else:
                shift = tuple(a - b for a, b in zip(e, lead(g)))
                rem = sub_multiple(rem, rem[e], shift, g)
        return out

    def s_poly(f, g):
        lf, lg = lead(f), lead(g)
        lcm = tuple(max(a, b) for a, b in zip(lf, lg))
        tf = sub_multiple({}, -1, tuple(a - b for a, b in zip(lcm, lf)), f)
        return sub_multiple(tf, 1, tuple(a - b for a, b in zip(lcm, lg)), g)

    G = [monic(f) for f in gens if f]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        h = reduce(s_poly(G[i], G[j]), G)
        if h:
            G.append(monic(h))
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    minimal = []
    for idx, g in enumerate(G):
        lg = lead(g)
        if not any(
            divides(lead(h), lg) and (lead(h) != lg or k < idx)
            for k, h in enumerate(G)
            if k != idx
        ):
            minimal.append(g)
    reduced = [monic(reduce(g, minimal[:k] + minimal[k + 1 :])) for k, g in enumerate(minimal)]
    return sorted(reduced, key=lambda g: key(lead(g)), reverse=True)


# ------------------------------------------------- univariate over Q


def up_trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def up_divmod(f, g):
    """Quotient and remainder in Q[x], coefficient lists low-to-high."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in up_trim(g)]
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    r = list(f)
    while up_trim(r) and len(up_trim(r)) >= len(g):
        r = list(up_trim(r))
        shift = len(r) - len(g)
        c = r[-1] / g[-1]
        q[shift] = c
        for i, gc in enumerate(g):
            r[shift + i] -= c * gc
    return up_trim(q), up_trim(r)


def up_gcd(f, g):
    a, b = up_trim(f), up_trim(g)
    while b:
        a, b = b, up_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


# ----------------------------------------------------- integer arithmetic


def is_prime_int(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor_int(n):
    """Sorted (prime, multiplicity) pairs by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime_power_int(n):
    return n >= 2 and len(factor_int(n)) == 1


# ------------------------------------------------------- frozen expectations
# Derived once by hand; tests compare engine output against these.

# (2)^k is contained in (2^n) exactly when k >= n, so the level of
# koszul((2^n)) against koszul((2)) is n, with witness 2^(n-1).
LEVEL_FAMILY_Z = {n: {"level": n, "witness": 2 ** (n - 1)} for n in range(1, 9)}

# For I = (x, y) in Q[x,y], the grevlex-leading generator of I^(n-1)
# outside I^n is x^(n-1).
OBSTRUCT_QXY_WITNESSES = {n: "x^" + str(n - 1) if n > 2 else "x" for n in range(2, 7)}

# Idempotents of Z/m for small m: CRT gives 2^(number of prime factors).
IDEMPOTENTS_MOD = {
    2: [0, 1],
    4: [0, 1],
    6: [0, 1, 3, 4],
    8: [0, 1],
    12: [0, 1, 4, 9],
    30: [0, 1, 6, 10, 15, 16, 21, 25],
}

# Hand-computed homology of [Z --4--> Z] and friends.
TWO_TERM_H0 = {
    (4,): [4],       # Z/4
    (6,): [6],       # Z/6
    (0,): [0],       # free of rank 1 (0 marks a free factor here)
    (1,): [],        # exact
}

# Thick membership over Z by prime support lists.
THICK_TABLE_Z = [
    # (target gen, generator gen, expected membership)
    (2, 6, True),    # {2} inside {2,3}
    (6, 2, False),   # 3 escapes
    (4, 2, True),    # same support {2}
    (2, 4, True),
    (6, 6, True),
    (5, 6, False),
]
