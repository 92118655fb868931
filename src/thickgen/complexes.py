"""Bounded complexes of finite free modules and chain maps.

Cohomological indexing throughout: the differential in degree n maps
X^n to X^(n+1), so diffs[n] has shape rank(n+1) x rank(n).  A complex
keeps its differentials and a chain map its components as blocks by
degree, only those with both sides nonzero; `_blocks` checks each given
block's ring and shape, and the structural checks (d after d = 0,
commuting squares) follow at construction.  The differentials of
direct sums and cones, and their canonical maps, are laid out by
`Matrix.from_blocks` at offsets read from the ranks; the canonical maps
place an identity block.

Sign conventions:
  - shift(X, k) reindexes by k and scales the differential by (-1)^k,
  - direct_sum(X_1..X_m)^n = X_1^n (+) ... (+) X_m^n with
    d = diag(d_1, ..., d_m),
  - cone(f)^n = src^(n+1) (+) dst^n with d = [[-d_src, 0], [f, d_dst]],
  - koszul(f_1..f_k) has the j-subsets S of range(k) as its basis in
    degree -j, in colex order (by largest element, then the next), and
    d(e_S) = sum over i in S of (-1)^#{s in S : s < i} f_i e_(S - i).
"""

from itertools import combinations

from .errors import ComplexFormatError, RingMismatchError
from .matrices import Matrix


def _blocks(ring, blocks, shape, what, label):
    """The blocks of a complex or chain map with both sides nonzero,
    sorted by degree; None entries are skipped, and every other block is
    checked for its ring and for the shape(n) its degree needs."""
    clean = {}
    for n, M in blocks.items():
        if M is None:
            continue
        if M.ring != ring:
            raise RingMismatchError(f"{what} over the wrong ring")
        need = shape(n)
        if M.shape() != need:
            raise ComplexFormatError(
                f"{label}({n}) has shape {M.shape()}, expected {need}", degree=n
            )
        if need[0] and need[1]:
            clean[n] = M
    return dict(sorted(clean.items()))


class FreeComplex:
    # _homology: the degree -> FPModule dict that homology.homology_all
    # stores on its first call; a complex does not change once built
    __slots__ = ("ring", "ranks", "diffs", "_homology")

    def __init__(self, ring, ranks, diffs):
        ranks = {n: r for n, r in ranks.items() if r}
        for n, r in ranks.items():
            if r < 0:
                raise ComplexFormatError(f"negative rank in degree {n}", degree=n)
        self.ring = ring
        self.ranks = dict(sorted(ranks.items()))
        clean = _blocks(
            ring, diffs, lambda n: (self.rank(n + 1), self.rank(n)), "differential", "d"
        )
        # materialize zero differentials wherever both ends are nonzero
        self.diffs = {
            n: clean[n] if n in clean else Matrix.zero(ring, self.rank(n + 1), r)
            for n, r in self.ranks.items()
            if self.rank(n + 1)
        }
        for n, d in self.diffs.items():
            nxt = self.diffs.get(n + 1)
            if nxt is not None and not (nxt @ d).is_zero():
                raise ComplexFormatError(f"d({n + 1}) after d({n}) is nonzero", degree=n)
        self._homology = None

    # shape ----------------------------------------------------------------

    def rank(self, n):
        return self.ranks.get(n, 0)

    def diff(self, n):
        d = self.diffs.get(n)
        if d is not None:
            return d
        return Matrix.zero(self.ring, self.rank(n + 1), self.rank(n))

    def degrees(self):
        return sorted(self.ranks)

    def is_zero_complex(self):
        return not self.ranks

    def lo(self):
        return min(self.ranks) if self.ranks else 0

    def hi(self):
        return max(self.ranks) if self.ranks else 0

    def __eq__(self, other):
        return (
            isinstance(other, FreeComplex)
            and other.ring == self.ring
            and other.ranks == self.ranks
            and other.diffs == self.diffs
        )

    def __hash__(self):
        return hash((self.ring, tuple(self.ranks.items()), tuple(self.diffs.items())))

    def __repr__(self):
        if self.is_zero_complex():
            return f"FreeComplex({self.ring.describe()}, 0)"
        parts = ", ".join(f"{n}:{r}" for n, r in self.ranks.items())
        return f"FreeComplex({self.ring.describe()}, ranks {{{parts}}})"

    # constructions ----------------------------------------------------------

    def shift(self, k):
        ranks = {n - k: r for n, r in self.ranks.items()}
        sign = self.ring.from_int(-1 if k % 2 else 1)
        diffs = {n - k: d.scale(sign) for n, d in self.diffs.items()}
        return FreeComplex(self.ring, ranks, diffs)


def zero_complex(ring):
    return FreeComplex(ring, {}, {})


def two_term(ring, elem, top_degree=0):
    """[R --f--> R] concentrated in degrees top_degree-1, top_degree."""
    f = ring.elem(elem)
    return FreeComplex(
        ring,
        {top_degree - 1: 1, top_degree: 1},
        {top_degree - 1: Matrix(ring, [[f.payload]], 1, 1)},
    )


def direct_sum(complexes):
    complexes = list(complexes)
    if not complexes:
        raise ValueError("direct_sum needs at least one complex")
    ring = complexes[0].ring
    if any(c.ring != ring for c in complexes):
        raise RingMismatchError("direct sum over mixed rings")
    ranks = {}
    for c in complexes:
        for n, r in c.ranks.items():
            ranks[n] = ranks.get(n, 0) + r
    diffs = {}
    for n in ranks:
        if not ranks.get(n + 1, 0):
            continue
        blocks, i, j = [], 0, 0
        for c in complexes:
            blocks.append((i, j, c.diff(n)))
            i, j = i + c.rank(n + 1), j + c.rank(n)
        diffs[n] = Matrix.from_blocks(ring, ranks[n + 1], ranks[n], blocks)
    return FreeComplex(ring, ranks, diffs)


class ChainMap:
    __slots__ = ("src", "dst", "comps")

    def __init__(self, src, dst, comps):
        if src.ring != dst.ring:
            raise RingMismatchError("chain map between complexes over different rings")
        self.src = src
        self.dst = dst
        self.comps = _blocks(
            src.ring,
            comps,
            lambda n: (dst.rank(n), src.rank(n)),
            "chain map component",
            "component c",
        )
        for n in set(src.ranks) | set(dst.ranks):
            left = dst.diff(n) @ self.comp(n)
            right = self.comp(n + 1) @ src.diff(n)
            if left != right:
                raise ComplexFormatError(
                    f"square at degree {n} does not commute", degree=n
                )

    def comp(self, n):
        M = self.comps.get(n)
        if M is not None:
            return M
        return Matrix.zero(self.src.ring, self.dst.rank(n), self.src.rank(n))

    def is_zero(self):
        return all(M.is_zero() for M in self.comps.values())

    def __eq__(self, other):
        return (
            isinstance(other, ChainMap)
            and other.src == self.src
            and other.dst == self.dst
            and {n: M for n, M in other.comps.items() if not M.is_zero()}
            == {n: M for n, M in self.comps.items() if not M.is_zero()}
        )

    def __hash__(self):
        nz = tuple(sorted((n, M) for n, M in self.comps.items() if not M.is_zero()))
        return hash((self.src, self.dst, nz))

    def __repr__(self):
        return f"ChainMap({self.src!r} -> {self.dst!r})"

    @classmethod
    def identity(cls, X):
        return cls(X, X, {n: Matrix.identity(X.ring, X.rank(n)) for n in X.degrees()})


def cone(f):
    """Mapping cone of f: X -> Y, with C^n = X^(n+1) (+) Y^n."""
    X, Y = f.src, f.dst
    ring = X.ring
    ranks = {}
    degs = set(X.ranks) | set(Y.ranks)
    for n in degs | {n - 1 for n in X.ranks}:
        r = X.rank(n + 1) + Y.rank(n)
        if r:
            ranks[n] = r
    diffs = {}
    for n in ranks:
        if not ranks.get(n + 1, 0):
            continue
        top, left = X.rank(n + 2), X.rank(n + 1)
        diffs[n] = Matrix.from_blocks(
            ring,
            ranks[n + 1],
            ranks[n],
            [(0, 0, -X.diff(n + 1)), (top, 0, f.comp(n + 1)), (top, left, Y.diff(n))],
        )
    return FreeComplex(ring, ranks, diffs)


def cone_inclusion(f):
    """Y -> cone(f), the canonical inclusion."""
    X, Y = f.src, f.dst
    C = cone(f)
    comps = {}
    for n in Y.degrees():
        I = Matrix.identity(Y.ring, Y.rank(n))
        comps[n] = Matrix.from_blocks(Y.ring, C.rank(n), Y.rank(n), [(X.rank(n + 1), 0, I)])
    return ChainMap(Y, C, comps)


def cone_projection(f):
    """cone(f) -> shift(X, 1), the canonical projection."""
    C, SX = cone(f), f.src.shift(1)
    comps = {}
    for n in SX.degrees():
        I = Matrix.identity(C.ring, SX.rank(n))
        comps[n] = Matrix.from_blocks(C.ring, SX.rank(n), C.rank(n), [(0, 0, I)])
    return ChainMap(C, SX, comps)


def koszul(ideal):
    """Koszul complex K(f_1..f_k) on the (pruned) generator list of the
    ideal, in degrees -k..0, with the subset basis and the signs of the
    module docstring."""
    ring = ideal.ring
    f = [g.payload for g in ideal.gens]
    k = len(f)
    z = ring.zero()
    bases = [sorted(combinations(range(k), j), key=lambda S: S[::-1]) for j in range(k + 1)]
    diffs = {}
    for j in range(1, k + 1):
        row_of = {S: r for r, S in enumerate(bases[j - 1])}
        rows = [[z] * len(bases[j]) for _ in bases[j - 1]]
        for c, S in enumerate(bases[j]):
            for pos, i in enumerate(S):
                rows[row_of[S[:pos] + S[pos + 1 :]]][c] = ring.neg(f[i]) if pos % 2 else f[i]
        diffs[-j] = Matrix(ring, rows, len(bases[j - 1]), len(bases[j]))
    return FreeComplex(ring, {-j: len(b) for j, b in enumerate(bases)}, diffs)


def is_quasi_iso(f):
    """True when cone(f) is exact in every degree."""
    from .homology import homology_all

    return all(H.is_zero() for H in homology_all(cone(f)).values())
