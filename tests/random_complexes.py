"""Random bounded complexes and chain maps for the property tests,
assembled from two-term and free singleton blocks and conjugated by
random elementary transformations.  A helper module, not a test module;
it imports the package, which `oracles.py` never does."""

from thickgen.complexes import ChainMap, FreeComplex, direct_sum, two_term
from thickgen.errors import TierError
from thickgen.matrices import Matrix
from thickgen.rings import RingElem


def random_complex(ring, rng, max_rank=4, degree_span=4, lo_range=(-2, 1)):
    """Random bounded complex assembled from two-term and singleton
    blocks, then conjugated by random elementary transformations.

    Returns (complex, blocks, transforms) so callers can build chain
    maps block by block; transforms maps degree -> (P, Pinv).
    """
    if ring.tier != 1:
        raise TierError("random complexes need a Tier-1 ring")
    lo = rng.randint(*lo_range)
    span = rng.randint(2, max(2, degree_span))
    blocks = []
    # ensure at least one free singleton so homology is nonzero
    blocks.append(("free", rng.randint(lo, lo + span - 1), None))
    used = {}
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["two", "free"])
        d = rng.randint(lo, lo + span - 2) if kind == "two" else rng.randint(lo, lo + span - 1)
        blocks.append((kind, d, ring.random_element(rng) if kind == "two" else None))
    # drop blocks that would push a degree over max_rank
    kept = []
    for kind, d, payload in blocks:
        touched = [d, d + 1] if kind == "two" else [d]
        if all(used.get(t, 0) < max_rank for t in touched):
            for t in touched:
                used[t] = used.get(t, 0) + 1
            kept.append((kind, d, payload))
    pieces = _block_pieces(ring, kept)
    plain = direct_sum(pieces)
    transforms = _random_transforms(ring, rng, plain)
    twisted = _conjugate(plain, transforms)
    return twisted, kept, transforms


def _block_pieces(ring, blocks):
    pieces = []
    for kind, d, payload in blocks:
        if kind == "two":
            pieces.append(two_term(ring, RingElem(ring, payload), d + 1))
        else:
            pieces.append(FreeComplex(ring, {d: 1}, {}))
    return pieces


def _random_transforms(ring, rng, X):
    transforms = {}
    for n in X.degrees():
        r = X.rank(n)
        P = Matrix.identity(ring, r)
        Pinv = Matrix.identity(ring, r)
        for _ in range(rng.randint(0, 2 * r)):
            i, j = rng.randrange(r), rng.randrange(r)
            if i == j:
                continue
            c = ring.from_int(rng.randint(-2, 2))
            E = Matrix.identity(ring, r).to_lists()
            Einv = Matrix.identity(ring, r).to_lists()
            E[i][j], Einv[i][j] = c, ring.neg(c)
            P = Matrix(ring, E, r, r) @ P
            Pinv = Pinv @ Matrix(ring, Einv, r, r)
        transforms[n] = (P, Pinv)
    return transforms


def _conjugate(X, transforms):
    ring = X.ring
    diffs = {}
    for n in X.degrees():
        if not X.rank(n + 1):
            continue
        P_next = transforms[n + 1][0]
        Pinv_n = transforms[n][1]
        diffs[n] = P_next @ X.diff(n) @ Pinv_n
    return FreeComplex(ring, dict(X.ranks), diffs)


def random_chain_map(ring, rng, max_rank=4, degree_span=4):
    """Random chain map f: X -> Y with nontrivial scalar block maps on
    shared blocks plus a random null-homotopic part."""
    X, blocks, tX = random_complex(ring, rng, max_rank, degree_span)
    # Y shares a prefix of X's blocks, plus its own extras
    shared = _block_pieces(ring, blocks[: rng.randint(1, len(blocks))])
    Y_extra = random_complex(ring, rng, max_rank, degree_span)[0]
    Y_plain = direct_sum([direct_sum(shared), Y_extra])
    tY = _random_transforms(ring, rng, Y_plain)
    Y = _conjugate(Y_plain, tY)
    scalars = [ring.from_int(rng.randint(-3, 3)) for _ in shared]
    h = {
        n: Matrix.build(
            ring,
            Y.rank(n - 1),
            X.rank(n),
            lambda i, j: ring.from_int(rng.randint(-2, 2)),
        )
        for n in X.degrees()
        if Y.rank(n - 1)
    }

    def h_at(n):
        M = h.get(n)
        if M is None:
            return Matrix.zero(ring, Y.rank(n - 1), X.rank(n))
        return M

    # before the conjugations: each scalar on its shared block (the same
    # differentials, so any scalar commutes), zero into the extras; the
    # shared blocks lead both X and Y, so they sit on the diagonal
    z = ring.zero()
    comps = {}
    for n in set(X.ranks) & set(Y.ranks):
        diag = [c for c, piece in zip(scalars, shared) for _ in range(piece.rank(n))]
        plain = Matrix.build(
            ring, Y.rank(n), X.rank(n), lambda i, j: diag[i] if i == j < len(diag) else z
        )
        # transport through the conjugations, then add a null homotopy
        null = Y.diff(n - 1) @ h_at(n) + h_at(n + 1) @ X.diff(n)
        comps[n] = tY[n][0] @ plain @ tX[n][1] + null
    return ChainMap(X, Y, comps)


def random_unlifted_complex(ring, rng, max_rank=3, tries=200):
    """Random three-term complex R^s -> R^r -> R^m over R = D/(mu), mu
    nonzero, whose lifted differentials do not compose to zero over D.

    With g a divisor of mu taken from a random element, the
    differentials are g*U and (mu/g)*V for random U and V, conjugated
    by random elementary transformations; draws whose lifted d after d
    vanishes over D are discarded."""
    cover, mu = ring.cover_ring, ring.modulus
    if not mu:
        raise TierError("unlifted complexes need a quotient ring D/(mu)")
    for _ in range(tries):
        g = cover.gcd(ring.random_element(rng), mu)
        factors = (ring.project(g), ring.project(cover.exact_div(mu, g)))
        s, r, m = (rng.randint(1, max_rank) for _ in range(3))
        d0, d1 = (
            Matrix.build(ring, rows, cols, lambda i, j: ring.mul(c, ring.random_element(rng)))
            for c, rows, cols in zip(factors, (r, m), (s, r))
        )
        lo = rng.randint(-2, 0)
        plain = FreeComplex(ring, {lo: s, lo + 1: r, lo + 2: m}, {lo: d0, lo + 1: d1})
        X = _conjugate(plain, _random_transforms(ring, rng, plain))
        lifted = [Matrix(cover, d.rows, d.nrows, d.ncols) for d in map(X.diff, (lo, lo + 1))]
        if not (lifted[1] @ lifted[0]).is_zero():
            return X
    raise ValueError(f"no complex over {ring.describe()} failed to lift in {tries} draws")
