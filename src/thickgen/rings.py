"""Concrete commutative rings with exact payload arithmetic.

Every ring kind works on plain hashable payloads (int, Fraction, coeff
tuples, term tuples); RingElem is a thin typed wrapper used at API
boundaries.  Internal kernels (matrices, normal forms) call the payload
methods directly; Z and Q bind add, neg and mul to the builtin
operators, and Z binds euclid_norm to abs.

Tier 1 kinds: Z, Zmod m, Fp, Q, univariate poly over a field, and its
monic quotients.  Tier 2: multivariate poly over a field (ideal
calculus only; no matrix kernels).

The quotients Z/m and k[t]/(f) are read through their cover ring: a
QuotientRing D/(mu) stores each element as its canonical representative
in D, the remainder D.residue(c, mu) (in [0, m) over Z, of degree below
deg f over k[t]).  Units, inverses and exact division are computed in D
from gcds with mu and one extended Euclid, EuclideanRing.inverse_mod;
only add, neg and mul are written per kind.
"""

import operator
from fractions import Fraction

from . import polys
from .errors import EngineError, NotDivisibleError, RingMismatchError
from .factor import is_prime


class Ring:
    kind = "?"
    is_field = False
    is_domain = False
    tier = 1

    def signature(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return self.describe()

    def describe(self):
        raise NotImplementedError

    # payload arithmetic -------------------------------------------------

    def zero(self):
        raise NotImplementedError

    def one(self):
        return self.from_int(1)

    def from_int(self, k):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def pow_(self, a, k):
        if k < 0:
            return self.pow_(self.inv_unit(a), -k)
        result = self.one()
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            k >>= 1
            if k:  # square only for a bit still to come
                base = self.mul(base, base)
        return result

    def is_zero(self, a):
        # 0, Fraction(0) and () are each the only falsy payload of their kind
        return not a

    def is_one(self, a):
        return a == self.one()

    def is_unit(self, a):
        raise NotImplementedError

    def inv_unit(self, a):
        raise NotImplementedError

    def exact_div(self, a, b):
        raise NotImplementedError

    def render(self, a):
        raise NotImplementedError

    def random_element(self, rng):
        raise NotImplementedError

    def elem(self, x):
        if isinstance(x, RingElem):
            if x.ring != self:
                raise RingMismatchError(f"element of {x.ring.describe()} used in {self.describe()}")
            return x
        if isinstance(x, int):
            return RingElem(self, self.from_int(x))
        raise TypeError(f"cannot coerce {x!r} into {self.describe()}")


class EuclideanRing(Ring):
    """Mixin for rings with exact division-with-remainder (Z, fields,
    univariate polynomials over a field).

    A Euclidean ring D is also the quotient D/(0): it is its own cover
    ring, its modulus is zero, and lift and project are the identity.
    Principal-ideal code works through that view alone."""

    @property
    def cover_ring(self):
        return self

    @property
    def modulus(self):
        return self.zero()

    def lift(self, a):
        return a

    def project(self, c):
        return c

    def euclid_norm(self, a):
        raise NotImplementedError

    def euclid_divmod(self, a, b):
        raise NotImplementedError

    def canonical_associate(self, a):
        """(c, u) with c = u*a the canonical generator of (a), u a unit."""
        raise NotImplementedError

    def residue(self, a, m):
        """The canonical representative of a mod a nonzero m."""
        return self.euclid_divmod(a, m)[1]

    def inverse_mod(self, a, m):
        """s with s*a = 1 mod m, reduced mod m (extended Euclid), or
        None when a is not a unit mod m."""
        r0, r1, s0, s1 = a, m, self.one(), self.zero()
        while not self.is_zero(r1):
            quo, rem = self.euclid_divmod(r0, r1)
            r0, r1, s0, s1 = r1, rem, s1, self.sub(s0, self.mul(quo, s1))
        if not self.is_unit(r0):
            return None
        return self.residue(self.mul(s0, self.inv_unit(r0)), m)

    def gcd(self, a, b):
        while not self.is_zero(b):
            a, b = b, self.euclid_divmod(a, b)[1]
        return self.canonical_associate(a)[0]

    def gcd_list(self, items):
        acc = self.zero()
        for a in items:
            acc = self.gcd(acc, a)
        return acc

    def lcm(self, a, b):
        if self.is_zero(a) or self.is_zero(b):
            return self.zero()
        g = self.gcd(a, b)
        return self.canonical_associate(self.mul(self.exact_div(a, g), b))[0]


class QuotientRing(Ring):
    """Quotient D/(mu) of a Euclidean domain D by a nonzero principal
    ideal: cover_ring is D, modulus is mu.  A payload is the canonical
    representative D.residue(c, mu) of its class, so lift is the
    identity and project reduces mod mu.  Everything but add, neg and
    mul is computed in D from that representative."""

    cover_ring = None
    modulus = None

    def signature(self):
        return (self.kind, self.cover_ring.signature(), self.modulus)

    def zero(self):
        return self.cover_ring.zero()

    def from_int(self, k):
        return self.project(self.cover_ring.from_int(k))

    def lift(self, a):
        return a

    def project(self, c):
        return self.cover_ring.residue(c, self.modulus)

    def render(self, a):
        return self.cover_ring.render(a)

    def is_unit(self, a):
        D = self.cover_ring
        return D.is_unit(D.gcd(a, self.modulus))

    def inv_unit(self, a):
        s = self.cover_ring.inverse_mod(a, self.modulus)
        if s is None:
            raise NotDivisibleError(f"{self.render(a)} is not a unit in {self.describe()}")
        return s

    def exact_div(self, a, b):
        """The solution x of b*x = a of least norm: with g = gcd(b, mu),
        (a/g) * (b/g)^-1 reduced mod mu/g."""
        D = self.cover_ring
        if D.is_zero(b):
            if D.is_zero(a):
                return self.zero()
            raise NotDivisibleError("division by zero")
        g = D.gcd(b, self.modulus)
        q, r = D.euclid_divmod(a, g)
        if not D.is_zero(r):
            raise NotDivisibleError(
                f"{self.render(b)} does not divide {self.render(a)} in {self.describe()}"
            )
        m1 = D.exact_div(self.modulus, g)
        return D.residue(D.mul(q, D.inverse_mod(D.exact_div(b, g), m1)), m1)


class FieldRing(EuclideanRing):
    is_field = True
    is_domain = True

    def is_unit(self, a):
        return not self.is_zero(a)

    def inv_unit(self, a):
        raise NotImplementedError

    def exact_div(self, a, b):
        if self.is_zero(b):
            raise NotDivisibleError("division by zero")
        return self.mul(a, self.inv_unit(b))

    def euclid_norm(self, a):
        return 0 if self.is_zero(a) else 1

    def euclid_divmod(self, a, b):
        return self.exact_div(a, b), self.zero()

    def canonical_associate(self, a):
        if self.is_zero(a):
            return self.zero(), self.one()
        return self.one(), self.inv_unit(a)


# ------------------------------------------------------------------ kinds


class IntegerRing(EuclideanRing):
    kind = "Z"
    is_domain = True

    def signature(self):
        return ("Z",)

    def describe(self):
        return "Z"

    def zero(self):
        return 0

    def from_int(self, k):
        return k

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    def is_unit(self, a):
        return a in (1, -1)

    def inv_unit(self, a):
        if a in (1, -1):
            return a
        raise NotDivisibleError(f"{a} is not a unit in Z")

    def exact_div(self, a, b):
        if b == 0:
            raise NotDivisibleError("division by zero")
        q, r = divmod(a, b)
        if r:
            raise NotDivisibleError(f"{b} does not divide {a} in Z")
        return q

    euclid_norm = staticmethod(abs)

    def euclid_divmod(self, a, b):
        # balanced remainder keeps SNF pivot growth down; divmod's r has
        # b's sign, which a tie keeps
        q, r = divmod(a, b)
        if 2 * abs(r) > abs(b):
            return q + 1, r - b
        return q, r

    def residue(self, a, m):
        # Z/m payloads lie in [0, m); the balanced remainder may not
        return a % m

    def canonical_associate(self, a):
        return (-a, -1) if a < 0 else (a, 1)

    def render(self, a):
        return render_number(a)

    def random_element(self, rng):
        return rng.randint(-9, 9)


class RationalRing(FieldRing):
    kind = "Q"

    def signature(self):
        return ("Q",)

    def describe(self):
        return "Q"

    def zero(self):
        return Fraction(0)

    def from_int(self, k):
        return Fraction(k)

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    def inv_unit(self, a):
        if a == 0:
            raise NotDivisibleError("0 is not a unit in Q")
        return 1 / a

    def render(self, a):
        return render_number(a)

    def random_element(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


class PrimeFieldRing(FieldRing):
    kind = "Fp"

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"Fp needs a prime, got {p}")
        self.p = p

    def signature(self):
        return ("Fp", self.p)

    def describe(self):
        return f"F{self.p}"

    def zero(self):
        return 0

    def from_int(self, k):
        return k % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv_unit(self, a):
        if a % self.p == 0:
            raise NotDivisibleError(f"0 is not a unit in F{self.p}")
        return pow(a, -1, self.p)

    def render(self, a):
        return render_number(a)

    def random_element(self, rng):
        return rng.randrange(self.p)

    def elements(self):
        return range(self.p)


class IntModRing(QuotientRing):
    kind = "Zmod"

    def __init__(self, m):
        if m < 2:
            raise ValueError(f"Zmod needs modulus >= 2, got {m}")
        self.m = m
        self.cover_ring = IntegerRing()
        self.modulus = m

    def describe(self):
        return f"Z/{self.m}"

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def random_element(self, rng):
        return rng.randrange(self.m)


class UniPolyRing(EuclideanRing):
    kind = "poly1"
    is_domain = True

    def __init__(self, coeff_field, var):
        if not coeff_field.is_field:
            raise ValueError("polynomial coefficients must come from a field")
        self.F = coeff_field
        self.var = var

    def signature(self):
        return ("poly1", self.F.signature(), self.var)

    def describe(self):
        return f"{self.F.describe()}[{self.var}]"

    def zero(self):
        return ()

    def from_int(self, k):
        return polys.uni_const(self.F, self.F.from_int(k))

    def var_payload(self):
        return polys.uni_x(self.F)

    def var_elem(self):
        return RingElem(self, self.var_payload())

    def add(self, a, b):
        return polys.uni_add(self.F, a, b)

    def neg(self, a):
        return polys.uni_neg(self.F, a)

    def mul(self, a, b):
        return polys.uni_mul(self.F, a, b)

    def is_unit(self, a):
        return len(a) == 1

    def inv_unit(self, a):
        if len(a) != 1:
            raise NotDivisibleError(f"{self.render(a)} is not a unit in {self.describe()}")
        return (self.F.inv_unit(a[0]),)

    def exact_div(self, a, b):
        if not b:
            raise NotDivisibleError("division by zero")
        q, r = polys.uni_divmod(self.F, a, b)
        if r:
            raise NotDivisibleError(
                f"{self.render(b)} does not divide {self.render(a)} in {self.describe()}"
            )
        return q

    def euclid_norm(self, a):
        return len(a)

    def euclid_divmod(self, a, b):
        return polys.uni_divmod(self.F, a, b)

    def canonical_associate(self, a):
        monic, u = polys.uni_monic(self.F, a)
        return monic, polys.uni_const(self.F, u)

    def render(self, a):
        terms = [((d,), a[d]) for d in range(len(a) - 1, -1, -1) if a[d]]
        return render_multi(self.F, terms, (self.var,))

    def random_element(self, rng):
        deg = rng.randint(0, 2)
        coeffs = [self.F.random_element(rng) for _ in range(deg + 1)]
        return polys.uni_trim(coeffs, self.F)


class UniQuotRing(QuotientRing):
    kind = "polyquot"

    def __init__(self, coeff_field, var, modulus):
        cover = UniPolyRing(coeff_field, var)
        modulus = polys.uni_monic(coeff_field, modulus)[0]
        if polys.uni_deg(modulus) < 1:
            raise ValueError("quotient modulus must have degree >= 1")
        self.F = coeff_field
        self.var = var
        self.cover_ring = cover
        self.modulus = modulus

    def describe(self):
        return f"{self.F.describe()}[{self.var}]/({self.cover_ring.render(self.modulus)})"

    def var_elem(self):
        return RingElem(self, self.project(self.cover_ring.var_payload()))

    def add(self, a, b):
        return polys.uni_add(self.F, a, b)

    def neg(self, a):
        return polys.uni_neg(self.F, a)

    def mul(self, a, b):
        return self.project(polys.uni_mul(self.F, a, b))

    def random_element(self, rng):
        d = polys.uni_deg(self.modulus)
        coeffs = [self.F.random_element(rng) for _ in range(d)]
        return polys.uni_trim(coeffs, self.F)


class MultiPolyRing(Ring):
    kind = "polym"
    is_domain = True
    tier = 2

    def __init__(self, coeff_field, variables, order="grevlex"):
        if not coeff_field.is_field:
            raise ValueError("polynomial coefficients must come from a field")
        variables = tuple(variables)
        if len(variables) < 2:
            raise ValueError("MultiPoly needs at least two variables")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        self.mono = polys.Monomials(len(variables), order)
        self.F = coeff_field
        self.vars = variables
        self.order = order

    def signature(self):
        return ("polym", self.F.signature(), self.vars, self.order)

    def describe(self):
        return f"{self.F.describe()}[{','.join(self.vars)}] ({self.order})"

    @property
    def nvars(self):
        return len(self.vars)

    def zero(self):
        return ()

    def from_int(self, k):
        return polys.m_const(self.F, self.F.from_int(k))

    def var_elem(self, i):
        exps = [0] * self.nvars
        exps[i] = 1
        return RingElem(self, ((self.mono.pack(exps), self.F.one()),))

    def add(self, a, b):
        return polys.m_add(self.F, a, b, self.mono)

    def neg(self, a):
        return polys.m_neg(self.F, a)

    def mul(self, a, b):
        return polys.m_mul(self.F, a, b, self.mono)

    def is_unit(self, a):
        return len(a) == 1 and self.mono.deg(a[0][0]) == 0

    def inv_unit(self, a):
        if not self.is_unit(a):
            raise NotDivisibleError(f"{self.render(a)} is not a unit in {self.describe()}")
        return polys.m_const(self.F, self.F.inv_unit(a[0][1]))

    def exact_div(self, a, b):
        if not b:
            raise NotDivisibleError("division by zero")
        F, M = self.F, self.mono
        rem = a
        quo = ()
        lt_b = polys.m_lt(b)
        while rem:
            lt_r = polys.m_lt(rem)
            if not M.divides(lt_b[0], lt_r[0]):
                raise NotDivisibleError(
                    f"{self.render(b)} does not divide {self.render(a)} in {self.describe()}"
                )
            t = ((M.div(lt_r[0], lt_b[0]), F.exact_div(lt_r[1], lt_b[1])),)
            quo = polys.m_add(F, quo, t, M)
            rem = polys.m_sub(F, rem, polys.m_mul(F, t, b, M), M)
        return quo

    def render(self, a):
        return render_multi(self.F, [(self.mono.unpack(m), c) for m, c in a], self.vars)

    def random_element(self, rng):
        terms = []
        for _ in range(rng.randint(0, 2)):
            exps = [rng.randint(0, 2) for _ in range(self.nvars)]
            terms.append((self.mono.pack(exps), self.F.random_element(rng)))
        return polys.m_canon(self.F, terms, self.mono)


# ------------------------------------------------------------- rendering


def render_number(a):
    """str() of an int or Fraction payload.  Python refuses to print
    integers past its digit limit; that is an EngineError here."""
    try:
        return str(a)
    except ValueError:
        bits = max(abs(a.numerator).bit_length(), a.denominator.bit_length())
        raise EngineError(f"cannot render a number of {bits} bits") from None


def coeff_pieces(F, c):
    """(is_negative, rendered absolute value) for a field coefficient."""
    if F.kind == "Q" and c < 0:
        return True, render_number(-c)
    return False, F.render(c)


def render_monomial(exp, names):
    pieces = []
    for name, e in zip(names, exp):
        if e == 0:
            continue
        pieces.append(name if e == 1 else f"{name}^{e}")
    return "*".join(pieces)


def render_multi(F, a, names):
    if not a:
        return "0"
    parts = []
    for exp, c in a:
        negative, mag = coeff_pieces(F, c)
        mono = render_monomial(exp, names)
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)


# ------------------------------------------------------------- the wrapper


class RingElem:
    """Typed element wrapper; all operators check ring equality."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        self.ring = ring
        self.payload = payload

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"mixing elements of {self.ring.describe()} and {other.ring.describe()}"
                )
            return other.payload
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return RingElem(self.ring, self.ring.add(self.payload, p))

    __radd__ = __add__

    def __sub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return RingElem(self.ring, self.ring.sub(self.payload, p))

    def __rsub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return RingElem(self.ring, self.ring.sub(p, self.payload))

    def __mul__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return RingElem(self.ring, self.ring.mul(self.payload, p))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElem(self.ring, self.ring.neg(self.payload))

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return RingElem(self.ring, self.ring.pow_(self.payload, k))

    def __truediv__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return RingElem(self.ring, self.ring.exact_div(self.payload, p))

    def __rtruediv__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return RingElem(self.ring, self.ring.exact_div(p, self.payload))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.payload == self.ring.from_int(other)
        return (
            isinstance(other, RingElem)
            and other.ring == self.ring
            and other.payload == self.payload
        )

    def __hash__(self):
        return hash((self.ring, self.payload))

    def __bool__(self):
        return not self.ring.is_zero(self.payload)

    def __repr__(self):
        return self.ring.render(self.payload)

    def is_unit(self):
        return self.ring.is_unit(self.payload)


ZZ = IntegerRing()
QQ = RationalRing()


def GF(p):
    return PrimeFieldRing(p)


def Zmod(m):
    return IntModRing(m)


def poly_ring(coeff_field, variables, order="grevlex"):
    variables = tuple(variables)
    if len(variables) == 1:
        return UniPolyRing(coeff_field, variables[0])
    return MultiPolyRing(coeff_field, variables, order)
