"""Smith and Hermite forms over Euclidean domains.

All elimination runs in one kernel, _hermite_columns: the reduced
column Hermite form of a list of vectors, under the "hermite" step
budget.  A payload is zero exactly when it is falsy (Ring.is_zero), so
the kernel tests entries by truth value and skips zero entries: a row
update (_axpy) runs over the support list of its source column, built
once per cascade step, back-reduction source and image column.

smith_normal_form(A) returns unimodular U, V and D with

    U @ A @ V == D,

D diagonal, each diagonal entry dividing the next, zeros last, all
entries canonical associates (nonnegative over Z, monic over k[x]).
invariant_factors(A) is the nonzero diagonal of D alone, from the
same passes with empty U and V blocks: a pass then drops the zero rows
and columns of M, which leaves its nonzero diagonal and the number of
passes as they are.  The passes alternate Hermite forms (Kannan and
Bachem, SIAM J. Comput. 8, 1979): a column pass takes the column
Hermite form of M stacked on V, a row pass that of M's rows joined to
U's rows.  M is tested for Smith form before each pass, so an input
already in it runs none.  When M is diagonal but d_t does not divide
d_(t+1), row t + 1 is added to row t, and the next column pass puts
gcd(d_t, d_(t+1)) at (t, t).

The passes end.  A column pass leaves the gcd of the first row of the
unsettled block at its corner, and a row pass the gcd of its first
column, so the norm of that first pivot never grows.  A pass that
keeps it finds the pivot's row (or column) already cleared by the pass
before and clears its column (or row), so the pivot is settled: no
later pass touches it, and the block shrinks.  A fold strictly lowers
the norm of pivot t, since the gcd is a proper divisor, and leaves the
settled pivots before it alone.  Norms are nonnegative integers, so
this can happen only finitely often.  Every pass is reduced, which in
practice keeps the entries of U and V near the size of A's minors.

hermite_basis(A) is the canonical column-echelon basis of A's column
lattice.  kernel_basis(A) and solve_exact(A, B) both read one Hermite
form, of [[A] ; [I]], with no Smith form: ker(A) is its block of
columns whose pivots lie below A's rows, and a solution comes from
dividing by the pivots of the others.  Everything here stays inside a
Euclidean domain; a quotient ring D/(mu) is handled upstream by
lifting to D.
"""

from collections import namedtuple

from .budget import StepCounter
from .errors import NoSolutionError, NotDivisibleError, TierError
from .matrices import Matrix
from .rings import EuclideanRing


class SNFResult(namedtuple("SNFResult", "U D V")):
    """Unimodular U and V with U @ A @ V == D."""

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
    m, n = A.nrows, A.ncols
    M, U, VT = _smith_passes(
        R, A.to_lists(), Matrix.identity(R, m).to_lists(), Matrix.identity(R, n).to_lists()
    )
    return SNFResult(U=Matrix(R, U, m, m), D=Matrix(R, M, m, n), V=Matrix(R, _transpose(VT), n, n))


def invariant_factors(A):
    """The nonzero diagonal of A's Smith form, in divisibility order:
    the passes of smith_normal_form with empty transform blocks."""
    R = A.ring
    _require_euclidean(R)
    empty_u, empty_vt = [[] for _ in range(A.nrows)], [[] for _ in range(A.ncols)]
    M, _, _ = _smith_passes(R, A.to_lists(), empty_u, empty_vt)
    return [x for x in _diagonal(M) if x]


def _smith_passes(R, M, U, VT):
    """(M, U, VT) once M is in Smith form: alternating Hermite passes on
    M's columns and rows, carrying the columns of V (as the rows of VT)
    and the rows of U.  A pass drops the lines that come out zero in
    both blocks, so with empty transforms M loses its zero rows and
    columns, which leaves its nonzero diagonal as it is."""
    counter = StepCounter("smith_normal_form")
    by_columns = True
    while True:
        if _is_canonical_diagonal(R, M):
            d = _diagonal(M)
            t = next((t for t in range(len(d) - 1) if not _divides(R, d[t], d[t + 1])), None)
            if t is None:
                return M, U, VT
            # fold; the column pass puts gcd(d_t, d_(t+1)) at (t, t)
            for X in (M, U):
                X[t] = [R.add(a, b) for a, b in zip(X[t], X[t + 1])]
            by_columns = True
        counter.tick()
        if by_columns:
            MT, VT = _hermite_rows(R, _transpose(M), VT)
            M = _transpose(MT)
        else:
            M, U = _hermite_rows(R, M, U)
        by_columns = not by_columns


def _diagonal(M):
    return [row[i] for i, row in enumerate(M) if i < len(row)]


def _is_canonical_diagonal(R, M):
    """M is diagonal, and each diagonal entry is zero or canonical."""
    for i, row in enumerate(M):
        for j, x in enumerate(row):
            if x and (i != j or not R.is_one(R.canonical_associate(x)[1])):
                return False
    return True


def _divides(R, a, b):
    return R.is_zero(b) or (not R.is_zero(a) and R.is_zero(R.euclid_divmod(b, a)[1]))


def _transpose(X):
    return [list(col) for col in zip(*X)]


def _hermite_rows(R, X, T):
    """(X', T'): the Hermite form of the rows of [X | T], split back into
    its X and T blocks.  Row operations only, rows in pivot order."""
    k = len(X[0])
    fixed, _ = _hermite_columns(R, k + len(T[0]), [x + t for x, t in zip(X, T)])
    return [f[:k] for f in fixed], [f[k:] for f in fixed]


def hermite_basis(A):
    """Column-echelon basis of the lattice spanned by A's columns.

    Unimodular column operations only, so the span is unchanged; the
    result has one pivot per nonzero row step, canonical pivots, and
    entries left of each pivot reduced mod that pivot.  This keeps
    basis entries near the size of the lattice data itself."""
    _require_euclidean(A.ring)
    cols = [[A.entry(i, j) for i in range(A.nrows)] for j in range(A.ncols)]
    fixed, _ = _hermite_columns(A.ring, A.nrows, cols)
    return _from_columns(A.ring, A.nrows, fixed)


def _from_columns(R, nrows, cols):
    return Matrix(R, [[c[i] for c in cols] for i in range(nrows)], nrows, len(cols))


def _support(v, start):
    """The indices of v's nonzero entries from start on."""
    return [i for i in range(start, len(v)) if v[i]]


def _axpy(R, dst, src, q, support):
    """dst -= q * src in place; support holds src's nonzero indices."""
    add, mul, nq = R.add, R.mul, R.neg(q)
    for i in support:
        dst[i] = add(dst[i], mul(nq, src[i]))


def _hermite_columns(R, nrows, cols):
    """(columns, pivot rows) of the Hermite form of the lattice the
    columns span; reduces the nonzero ones in place.  The columns come
    out in pivot-row order, each zero above its pivot row."""
    cols = [c for c in cols if any(c)]
    counter = StepCounter("hermite")
    fixed = []
    pivot_rows = []
    for row in range(nrows):
        if not cols:
            break
        live = [c for c in cols if c[row]]
        if not live:
            continue
        # gcd cascade: shrink entries at `row` until one column remains
        while len(live) > 1:
            counter.tick()
            live.sort(key=lambda c: R.euclid_norm(c[row]))
            p = live[0]
            p_support = _support(p, row)
            rest = []
            for c in live[1:]:
                q, r = R.euclid_divmod(c[row], p[row])
                if q:
                    _axpy(R, c, p, q, p_support)
                if c[row]:
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
    for k, (src, row) in enumerate(zip(fixed, pivot_rows)):
        support = _support(src, row)
        for dst in fixed[:k]:
            q, _ = R.euclid_divmod(dst[row], src[row])
            if q:
                _axpy(R, dst, src, q, support)
    return fixed, pivot_rows


def _stacked_hermite(A):
    """(columns, pivot rows) of the Hermite form [H ; T] of [[A] ; [I]]:
    column operations keep the lattice, so T is unimodular and
    A @ T = H."""
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
    """Hermite basis of ker(A), a free direct summand.

    The columns of [H ; T] whose pivots lie below A's rows have H = 0,
    so their T blocks generate the kernel, and they are already the
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
    image = [(c, p, _support(c, p)) for c, p in zip(fixed, pivot_rows) if p < m]
    xs = []
    for j in range(B.ncols):
        v = [B.entry(i, j) for i in range(m)] + [R.zero()] * A.ncols
        for c, p, support in image:
            if not v[p]:
                continue
            try:
                q = R.exact_div(v[p], c[p])
            except NotDivisibleError:
                raise NoSolutionError("system has no exact solution")
            _axpy(R, v, c, q, support)
        if any(v[:m]):
            raise NoSolutionError("system has no exact solution")
        xs.append([R.neg(x) for x in v[m:]])
    return _from_columns(R, A.ncols, xs)
