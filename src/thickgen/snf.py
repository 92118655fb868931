"""Smith and Hermite forms over Euclidean domains.

smith_normal_form(A) returns unimodular U, V and D with

    U @ A @ V == D,

D diagonal, each diagonal entry dividing the next, all entries
canonical associates (nonnegative over Z, monic over k[x]).  Pivot
selection: smallest Euclidean norm in the working submatrix, lowest
(row, col) on ties.

hermite_basis(A) is the canonical column-echelon basis of A's column
lattice.  kernel_basis(A) and solve_exact(A, B) both read the Hermite
form of A stacked on the identity, with no Smith form: the kernel is
its block of columns whose pivots lie below A's rows, and a solution
comes from dividing by the pivots of the others.  Everything here stays
inside a Euclidean domain; quotient rings are handled upstream by
lifting.
"""

from dataclasses import dataclass

from .budget import StepCounter
from .errors import NoSolutionError, NotDivisibleError, TierError
from .matrices import Matrix
from .rings import EuclideanRing


class _Work:
    """Mutable matrix with row/col transform bookkeeping.

    Row op L applied as M <- L @ M updates U <- L @ U.
    Col op P applied as M <- M @ P updates V <- V @ P.
    """

    def __init__(self, A):
        self.R = A.ring
        self.m = A.nrows
        self.n = A.ncols
        self.M = A.to_lists()
        self.U = Matrix.identity(self.R, self.m).to_lists()
        self.V = Matrix.identity(self.R, self.n).to_lists()

    def row_swap(self, i, j):
        if i == j:
            return
        for X in (self.M, self.U):
            X[i], X[j] = X[j], X[i]

    def col_swap(self, i, j):
        if i == j:
            return
        for X in (self.M, self.V):
            for row in X:
                row[i], row[j] = row[j], row[i]

    def row_axpy(self, i, j, q):
        """row_i -= q * row_j (i != j)."""
        R = self.R
        for X in (self.M, self.U):
            ri, rj = X[i], X[j]
            for k in range(len(ri)):
                ri[k] = R.sub(ri[k], R.mul(q, rj[k]))

    def col_axpy(self, j, i, q):
        """col_j -= q * col_i (i != j)."""
        R = self.R
        for X in (self.M, self.V):
            for row in X:
                row[j] = R.sub(row[j], R.mul(q, row[i]))

    def row_scale(self, i, u):
        R = self.R
        for X in (self.M, self.U):
            X[i] = [R.mul(u, x) for x in X[i]]


@dataclass
class SNFResult:
    U: Matrix
    D: Matrix
    V: Matrix

    @property
    def diagonal(self):
        """All min(m, n) diagonal payloads of D, zeros included."""
        k = min(self.D.nrows, self.D.ncols)
        return [self.D.entry(i, i) for i in range(k)]

    @property
    def invariants(self):
        """The nonzero diagonal entries, in divisibility order."""
        R = self.D.ring
        return [x for x in self.diagonal if not R.is_zero(x)]


def _require_euclidean(ring):
    if not isinstance(ring, EuclideanRing):
        raise TierError(
            f"matrix normal forms need a Euclidean ring, got {ring.describe()}"
        )


def smith_normal_form(A):
    R = A.ring
    _require_euclidean(R)
    w = _Work(A)
    m, n = w.m, w.n
    counter = StepCounter("smith_normal_form")
    t = 0
    while t < min(m, n):
        best = None
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                x = w.M[i][j]
                if not R.is_zero(x):
                    nrm = R.euclid_norm(x)
                    if best is None or nrm < best:
                        best, pivot = nrm, (i, j)
        if pivot is None:
            break
        w.row_swap(t, pivot[0])
        w.col_swap(t, pivot[1])

        while True:
            counter.tick()
            # clear column t below the pivot
            progressed = True
            while progressed:
                progressed = False
                for i in range(t + 1, m):
                    if R.is_zero(w.M[i][t]):
                        continue
                    q, r = R.euclid_divmod(w.M[i][t], w.M[t][t])
                    if not R.is_zero(q):
                        w.row_axpy(i, t, q)
                    if not R.is_zero(w.M[i][t]):
                        # remainder beats the pivot; promote it
                        w.row_swap(t, i)
                        progressed = True
                counter.tick()
            # clear row t right of the pivot (column ops keep col t clean)
            row_dirty = False
            progressed = True
            while progressed:
                progressed = False
                for j in range(t + 1, n):
                    if R.is_zero(w.M[t][j]):
                        continue
                    q, r = R.euclid_divmod(w.M[t][j], w.M[t][t])
                    if not R.is_zero(q):
                        w.col_axpy(j, t, q)
                    if not R.is_zero(w.M[t][j]):
                        w.col_swap(t, j)
                        progressed = True
                        row_dirty = True
                counter.tick()
            if row_dirty and any(
                not R.is_zero(w.M[i][t]) for i in range(t + 1, m)
            ):
                continue
            # pivot now alone in its row and column; enforce divisibility
            p = w.M[t][t]
            violation = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if not R.is_zero(R.euclid_divmod(w.M[i][j], p)[1]):
                        violation = i
                        break
                if violation is not None:
                    break
            if violation is None:
                break
            # fold the offending row into row t and keep reducing
            w.row_axpy(t, violation, R.neg(R.one()))
        c, u = R.canonical_associate(w.M[t][t])
        if not R.is_one(u):
            w.row_scale(t, u)
        t += 1

    return SNFResult(
        U=Matrix(R, w.U, m, m),
        D=Matrix(R, w.M, m, n),
        V=Matrix(R, w.V, n, n),
    )


def hermite_basis(A):
    """Column-echelon basis of the lattice spanned by A's columns.

    Unimodular column operations only, so the span is unchanged; the
    result has one pivot per nonzero row step, canonical pivots, and
    entries left of each pivot reduced mod that pivot.  This keeps
    basis entries near the size of the lattice data itself, where the
    raw transform columns out of smith_normal_form can be astronomically
    larger."""
    _require_euclidean(A.ring)
    cols = [[A.entry(i, j) for i in range(A.nrows)] for j in range(A.ncols)]
    fixed, _ = _hermite_columns(A.ring, A.nrows, cols)
    return _from_columns(A.ring, A.nrows, fixed)


def _from_columns(R, nrows, cols):
    return Matrix(R, [[c[i] for c in cols] for i in range(nrows)], nrows, len(cols))


def _axpy(R, dst, src, q):
    """dst -= q * src, entrywise and in place."""
    for i in range(len(dst)):
        dst[i] = R.sub(dst[i], R.mul(q, src[i]))


def _hermite_columns(R, nrows, cols):
    """(columns, pivot rows) of the Hermite form of the lattice the
    columns span; reduces the nonzero ones in place.  The columns come
    out in pivot-row order, each zero above its pivot row."""
    cols = [c for c in cols if any(not R.is_zero(x) for x in c)]
    counter = StepCounter("hermite")
    fixed = []
    pivot_rows = []
    for row in range(nrows):
        live = [c for c in cols if not R.is_zero(c[row])]
        if not live:
            continue
        # gcd cascade: shrink entries at `row` until one column remains
        while len(live) > 1:
            counter.tick()
            live.sort(key=lambda c: R.euclid_norm(c[row]))
            p = live[0]
            rest = []
            for c in live[1:]:
                q, r = R.euclid_divmod(c[row], p[row])
                if not R.is_zero(q):
                    _axpy(R, c, p, q)
                if not R.is_zero(c[row]):
                    rest.append(c)
            live = [p] + rest
        pivot = live[0]
        _, u = R.canonical_associate(pivot[row])
        if not R.is_one(u):
            for i in range(len(pivot)):
                pivot[i] = R.mul(u, pivot[i])
        cols.remove(pivot)
        fixed.append(pivot)
        pivot_rows.append(row)
    # back-reduce: entries of earlier columns at later pivot rows
    for k in range(len(fixed)):
        for j in range(k):
            q, _ = R.euclid_divmod(fixed[j][pivot_rows[k]], fixed[k][pivot_rows[k]])
            if not R.is_zero(q):
                _axpy(R, fixed[j], fixed[k], q)
    return fixed, pivot_rows


def _stacked_hermite(A):
    """(columns, pivot rows) of the Hermite form [H ; T] of A stacked on
    the identity.  Column operations keep [A ; I] @ V = [H ; T], so
    T = V is unimodular and A @ T = H."""
    R = A.ring
    _require_euclidean(R)
    m, n = A.nrows, A.ncols
    cols = []
    for j in range(n):
        unit = [R.zero()] * n
        unit[j] = R.one()
        cols.append([A.entry(i, j) for i in range(m)] + unit)
    return _hermite_columns(R, m + n, cols)


def kernel_basis(A):
    """Hermite basis of ker(A), a free direct summand of the column space.

    The columns of [H ; T] whose pivots lie below A's rows have H = 0,
    so their T blocks generate ker(A), and they are already the
    canonical Hermite basis of it."""
    m = A.nrows
    fixed, pivot_rows = _stacked_hermite(A)
    return _from_columns(A.ring, A.ncols, [c[m:] for c, p in zip(fixed, pivot_rows) if p >= m])


def solve_exact(A, B):
    """Solve A @ X = B exactly; raises NoSolutionError when impossible.

    Each column b of B is divided by the columns [h ; t] of [H ; T] whose
    pivots p lie in A's rows, in pivot-row order: subtract q * [h ; t]
    from [b ; 0] with q = b[p] / h[p].  A column is zero above its
    pivot row, so b is cleared exactly when it lies in the column span
    of A, and what is left is [0 ; -x] with A @ x = b.  When A has full
    column rank, x is the only solution."""
    if B.nrows != A.nrows:
        raise ValueError("right-hand side row count mismatch")
    R = A.ring
    fixed, pivot_rows = _stacked_hermite(A)
    m = A.nrows
    image = [(c, p) for c, p in zip(fixed, pivot_rows) if p < m]
    xs = []
    for j in range(B.ncols):
        v = [B.entry(i, j) for i in range(m)] + [R.zero()] * A.ncols
        for c, p in image:
            if R.is_zero(v[p]):
                continue
            try:
                q = R.exact_div(v[p], c[p])
            except NotDivisibleError:
                raise NoSolutionError("system has no exact solution")
            _axpy(R, v, c, q)
        if any(not R.is_zero(x) for x in v[:m]):
            raise NoSolutionError("system has no exact solution")
        xs.append([R.neg(x) for x in v[m:]])
    return _from_columns(R, A.ncols, xs)
