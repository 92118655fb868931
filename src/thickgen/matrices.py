"""Exact matrices over a ring, entries stored dense as payloads.

Products skip zero entries, so the sparse differentials of Koszul
complexes cost what their nonzero entries cost.
Shapes are explicit so zero-row and zero-column matrices behave (they
show up constantly as differentials at the ends of complexes).
"""

from .errors import RingMismatchError


class Matrix:
    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring, rows, nrows=None, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        if nrows is None:
            nrows = len(rows)
        if ncols is None:
            if nrows == 0:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(rows[0])
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError(f"ragged matrix data for shape {nrows}x{ncols}")
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    # construction -------------------------------------------------------

    @classmethod
    def build(cls, ring, nrows, ncols, fn):
        return cls(ring, [[fn(i, j) for j in range(ncols)] for i in range(nrows)], nrows, ncols)

    @classmethod
    def zero(cls, ring, nrows, ncols):
        z = ring.zero()
        return cls(ring, [[z] * ncols for _ in range(nrows)], nrows, ncols)

    @classmethod
    def identity(cls, ring, n):
        return cls.scalar(ring, ring.one(), n)

    @classmethod
    def scalar(cls, ring, c, n):
        z = ring.zero()
        return cls(ring, [[c if i == j else z for j in range(n)] for i in range(n)], n, n)

    @classmethod
    def column(cls, ring, entries):
        return cls(ring, [[e] for e in entries], len(entries), 1)

    # access -------------------------------------------------------------

    def entry(self, i, j):
        return self.rows[i][j]

    def shape(self):
        return (self.nrows, self.ncols)

    def to_lists(self):
        return [list(r) for r in self.rows]

    # predicates ---------------------------------------------------------

    def is_zero(self):
        return not any(map(any, self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.ring == self.ring
            and other.shape() == self.shape()
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.ring, self.nrows, self.ncols, self.rows))

    # arithmetic ---------------------------------------------------------

    def _check(self, other, need_same_shape):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if other.ring != self.ring:
            raise RingMismatchError("matrices over different rings")
        if need_same_shape and other.shape() != self.shape():
            raise ValueError(f"shape mismatch {self.shape()} vs {other.shape()}")

    def __add__(self, other):
        self._check(other, True)
        R = self.ring
        return Matrix(
            R,
            [
                [R.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
            self.nrows,
            self.ncols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        R = self.ring
        return Matrix(R, [[R.neg(x) for x in r] for r in self.rows], self.nrows, self.ncols)

    def scale(self, c):
        R = self.ring
        return Matrix(R, [[R.mul(c, x) for x in r] for r in self.rows], self.nrows, self.ncols)

    def __matmul__(self, other):
        self._check(other, False)
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape()} by {other.shape()}")
        R = self.ring
        add, mul, z = R.add, R.mul, R.zero()
        # row i of the product sums a * (row k of other) over nonzero a = self[i][k]
        sparse = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
        out = []
        for r in self.rows:
            row = [z] * other.ncols
            for a, terms in zip(r, sparse):
                if a:
                    for j, b in terms:
                        row[j] = add(row[j], mul(a, b))
            out.append(row)
        return Matrix(R, out, self.nrows, other.ncols)

    def transpose(self):
        return Matrix(
            self.ring,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.ncols,
            self.nrows,
        )

    def map_entries(self, fn, ring=None):
        return Matrix(
            ring or self.ring,
            [[fn(x) for x in r] for r in self.rows],
            self.nrows,
            self.ncols,
        )

    # assembly -----------------------------------------------------------

    @classmethod
    def from_blocks(cls, ring, nrows, ncols, blocks):
        """The nrows x ncols matrix with each (row, col, M) of blocks
        written at that offset, and zeros everywhere else."""
        z = ring.zero()
        out = [[z] * ncols for _ in range(nrows)]
        for i, j, M in blocks:
            if M.ring != ring:
                raise RingMismatchError("block over a different ring")
            if i < 0 or j < 0 or i + M.nrows > nrows or j + M.ncols > ncols:
                raise ValueError(
                    f"{M.nrows}x{M.ncols} block at ({i}, {j}) does not fit {nrows}x{ncols}"
                )
            for r, row in enumerate(M.rows):
                out[i + r][j : j + M.ncols] = row
        return cls(ring, out, nrows, ncols)

    # rendering ----------------------------------------------------------

    def render(self):
        # zero is the only falsy payload, and large differentials are
        # mostly zeros, so its string is rendered once per matrix
        render, zero = self.ring.render, self.ring.render(self.ring.zero())
        rows = ", ".join(
            "[" + ", ".join([render(x) if x else zero for x in r]) + "]" for r in self.rows
        )
        return f"[{rows}]"

    def __repr__(self):
        return f"Matrix({self.ring.describe()}, {self.nrows}x{self.ncols}, {self.render()})"
