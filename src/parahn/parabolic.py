"""Parabolic structures: flags at marked points, weights, degrees and Homs.

Flags live in the fiber of the bundle at each marked point (plain subspaces
of F_q^n in the t-chart frame), weighted by strictly increasing rationals in
(0, 1).  The parabolic degree of a subbundle is computed from its induced
flag intersections.  Each bundle scales its weights once by D, the lcm of
their denominators, so scaled_degree gives D times a parabolic degree as an
int and the HN scan compares degrees without Fraction.  Each flag computes,
once per field, the coordinates adapted to it (a basis whose first dim F_m
vectors span F_m, inverted and with its columns reversed); in those
coordinates a single rref of a subbundle's fiber gives every flag
intersection dimension from its pivot columns, and the flag keeps the jumps
of every fiber it has seen (see Flag.induced_jumps and induced_quot_datum).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import (
    BadWeights,
    EqualRanks,
    FullRank,
    IncompatibleShape,
    InvalidSubbundle,
    NotNested,
    ShapeMismatch,
)
from .linalg import identity, kernel_basis, matmul, rref, subspace_leq
from .poly import pnorm
from .sheaves import SplitBundle, Subbundle, quotient_bundle


@dataclass(frozen=True)
class Flag:
    """Fiber flag: jump sizes plus echelon bases of the proper chain members."""

    jumps: tuple
    subspaces: tuple  # one echelon row basis per proper member, m = 1..N-1

    @property
    def chain_length(self) -> int:
        return len(self.jumps)

    def subspace(self, m: int):
        """Echelon rows of the m-th member; m = 0 is zero, m = N is everything."""
        if m == 0:
            return ()
        if m == len(self.jumps):
            return identity(sum(self.jumps))
        return self.subspaces[m - 1]

    @cached_property
    def _by_field(self):
        # field -> (flag-adapted coordinates, {fiber rows: jumps}); a memo,
        # not a dataclass field, so equality, hash and repr ignore it
        return {}

    def induced_jumps(self, F, rows):
        """Jumps of dim(<rows> ∩ F_m) over the members F_m, for fiber rows
        over F; computed once per (field, rows), see induced_quot_datum."""
        memo = self._by_field.get(F)
        if memo is None:
            memo = self._by_field[F] = (self._adapted_coords(F), {})
        coords, seen = memo
        hit = seen.get(rows)
        if hit is None:
            _, _, pivots = rref(F, matmul(F, rows, coords))
            jumps = []
            hi = sum(self.jumps)
            for a in self.jumps:
                jumps.append(sum(1 for p in pivots if hi - a <= p < hi))
                hi -= a
            hit = seen[rows] = tuple(jumps)
        return hit

    def _adapted_coords(self, F):
        """The n x n matrix over F taking fiber rows to flag-adapted coordinates.

        The adapted basis b_1..b_n lists, in order, the first independent
        rows among the echelon bases of F_1, F_2, ..., F_N = F_q^n (pivot
        columns of the rref of their transpose), so b_1..b_{dim F_m} span
        F_m.  The matrix is that basis's inverse with its columns reversed:
        row w maps to its coordinates c_n..c_1 in the basis, so w lies in F_m
        exactly when its image vanishes outside the last dim F_m columns.
        """
        n = sum(self.jumps)
        eye = identity(n)
        stack = tuple(v for rows in self.subspaces for v in rows) + eye  # F_N = F_q^n
        _, _, chosen = rref(F, tuple(zip(*stack)))
        red, _, _ = rref(F, tuple(stack[i] + eye[k] for k, i in enumerate(chosen)))
        return tuple(tuple(row[:n - 1:-1]) for row in red)


def check_flag_shape(n: int, jumps, members):
    """Raise ShapeMismatch unless jumps and members can make a flag in a
    rank-n fiber: nonnegative jumps summing to n, one member for each of the
    N - 1 proper chain steps, every vector of length n."""
    if any(a < 0 for a in jumps):
        raise ShapeMismatch("flag jumps must be nonnegative")
    if sum(jumps) != n:
        raise ShapeMismatch(f"flag jumps must sum to the rank {n}")
    if len(members) != len(jumps) - 1:
        raise ShapeMismatch(
            f"expected {len(jumps) - 1} proper chain members, got {len(members)}"
        )
    for m, rows in enumerate(members, start=1):
        if any(len(r) != n for r in rows):
            raise ShapeMismatch(f"flag member {m}: vectors must have length {n}")


def flag_make(field, n: int, jumps, raw_subspaces) -> Flag:
    """Validate and echelon-normalize a flag for a rank-n fiber."""
    jumps = tuple(int(a) for a in jumps)
    check_flag_shape(n, jumps, raw_subspaces)
    spaces = []
    expect = 0
    for m, rows in enumerate(raw_subspaces, start=1):
        expect += jumps[m - 1]
        rows = tuple(tuple(r) for r in rows)
        for c in sum(rows, ()):
            field.check_element(c)
        red, rk, _ = rref(field, rows)
        if rk != expect:
            raise ShapeMismatch(
                f"flag member {m}: dimension {rk}, expected {expect}"
            )
        spaces.append(red[:rk])
    for prev, cur in zip(spaces, spaces[1:]):
        if not subspace_leq(field, prev, cur):
            raise ShapeMismatch("flag members are not nested")
    return Flag(jumps, tuple(spaces))


def check_weights(jumps, lam):
    """Raise BadWeights unless lam weights a flag with these jumps at one
    marked point: one weight per chain block, strictly increasing inside
    (0, 1)."""
    if len(lam) != len(jumps):
        raise BadWeights(f"{len(lam)} weights for a flag of chain length {len(jumps)}")
    for w in lam:
        if not 0 < w < 1:
            raise BadWeights(f"weight {w} outside (0, 1)")
    if any(a >= b for a, b in zip(lam, lam[1:])):
        raise BadWeights("weights must strictly increase")


@dataclass(frozen=True)
class ParabolicBundle:
    """Split bundle with a weighted flag in its fiber at each marked point."""

    bundle: SplitBundle
    points: tuple  # distinct field element codes, t-chart
    flags: tuple
    weights: tuple  # per point: strictly increasing Fractions in (0, 1)

    def __post_init__(self):
        if not (len(self.points) == len(self.flags) == len(self.weights)):
            raise ShapeMismatch("points, flags and weights must align")
        if len(set(self.points)) != len(self.points):
            raise ShapeMismatch("marked points must be distinct")
        for x in self.points:
            self.field.check_element(x)
        for fl, lam in zip(self.flags, self.weights):
            check_flag_shape(self.rank, fl.jumps, fl.subspaces)
            for c in (c for rows in fl.subspaces for row in rows for c in row):
                self.field.check_element(c)
            check_weights(fl.jumps, lam)

    @property
    def field(self):
        return self.bundle.field

    @property
    def rank(self) -> int:
        return self.bundle.rank

    @cached_property
    def scaled_weights(self):
        """(D, weights times D as ints), D the lcm of the weight denominators."""
        D = lcm(*(w.denominator for lam in self.weights for w in lam))
        return D, tuple(tuple(int(w * D) for w in lam) for lam in self.weights)

    def extend_scalars(self, m: int) -> "ParabolicBundle":
        big, embed = self.field.extension(m)
        new_bundle = SplitBundle(big, self.bundle.twists)
        new_points = tuple(embed(x) for x in self.points)
        new_flags = tuple(
            Flag(
                fl.jumps,
                tuple(
                    tuple(tuple(embed(c) for c in row) for row in rows)
                    for rows in fl.subspaces
                ),
            )
            for fl in self.flags
        )
        return ParabolicBundle(new_bundle, new_points, new_flags, self.weights)


@dataclass(frozen=True, order=True)
class QuotDatum:
    """Discrete invariant of a parabolic subbundle: rank, degree, flag jumps."""

    rank: int
    degree: int
    jumps: tuple  # per point: tuple of nonnegative ints summing to rank


def induced_quot_datum(V: ParabolicBundle, W: Subbundle) -> QuotDatum:
    """Invariant of W with its induced flag intersections at each point.

    At each point the jumps depend only on W's fiber rows there and the
    flag, so Flag.induced_jumps computes them once per (field, fiber rows),
    with one rref.  Let C be the fiber rows mapped by the flag's adapted
    coordinates (columns reversed), so that F_m is the set of vectors
    supported on columns k_m = n - dim F_m .. n - 1.  Then dim(W ∩ F_m) is
    the number of pivot columns of rref(C) that are at least k_m, so the
    m-th jump counts the pivots in [k_m, k_{m-1}).  Proof: a reduced row
    with pivot p is zero left of p, so the rows with pivots >= k_m lie in
    F_m, and they are independent.  Conversely, a vector v = sum a_i R_i of
    the row space has entry a_i at the pivot column p_i of R_i (the other
    rows are zero there); if v lies in F_m it vanishes left of k_m, so
    a_i = 0 whenever p_i < k_m, and v is spanned by the rows with pivots
    >= k_m.  Nothing assumes the flag is complete: a zero jump repeats k_m
    and gives a zero difference.
    """
    if W.bundle != V.bundle:
        raise InvalidSubbundle("subbundle lives in a different ambient bundle")
    F = V.field
    return QuotDatum(
        W.rank,
        W.degree,
        tuple(fl.induced_jumps(F, W.fiber_rows(x)) for x, fl in zip(V.points, V.flags)),
    )


def full_datum(V: ParabolicBundle) -> QuotDatum:
    """The datum of V itself: its rank, degree and flag jumps."""
    return QuotDatum(V.rank, V.bundle.degree, tuple(fl.jumps for fl in V.flags))


def scaled_degree(V: ParabolicBundle, theta: QuotDatum) -> int:
    """D times the parabolic degree d + sum_x (r - sum_m lambda_m b_m) of
    theta, D = V.scaled_weights[0], so every term is an int."""
    D, lams = V.scaled_weights
    return D * theta.degree + sum(
        D * theta.rank - sum(l * b for l, b in zip(lam, jumps))
        for lam, jumps in zip(lams, theta.jumps)
    )


def degree_from_datum(V: ParabolicBundle, theta: QuotDatum) -> Fraction:
    return Fraction(scaled_degree(V, theta), V.scaled_weights[0])


def parabolic_degree(V: ParabolicBundle, W: Subbundle | None = None) -> Fraction:
    """Parabolic degree of V, or of a subbundle with its induced structure."""
    if W is None:
        return degree_from_datum(V, full_datum(V))
    if W.rank == 0:
        return Fraction(0)
    return degree_from_datum(V, induced_quot_datum(V, W))


def parabolic_slope(V: ParabolicBundle, W: Subbundle | None = None) -> Fraction:
    r = V.rank if W is None else W.rank
    if r == 0:
        raise EqualRanks("the zero subbundle has no slope")
    return parabolic_degree(V, W) / r


def relative_slope(V: ParabolicBundle, U: Subbundle, W: Subbundle) -> Fraction:
    """Slope of the parabolic quotient W/U, by degree additivity."""
    if not W.contains(U):
        raise NotNested("first subbundle is not contained in the second")
    if W.rank == U.rank:
        raise EqualRanks("relative slope needs strictly nested subbundles")
    return (parabolic_degree(V, W) - parabolic_degree(V, U)) / (W.rank - U.rank)


def sub_parabolic(V: ParabolicBundle, W: Subbundle) -> ParabolicBundle:
    """W as a parabolic bundle in its own right, with the induced flags."""
    if W.rank == 0:
        raise EqualRanks("the zero subbundle carries no parabolic structure")
    F = V.field
    n = V.rank
    r = W.rank
    sub_bundle = SplitBundle(F, W.col_twists)
    flags = []
    for x, fl in zip(V.points, V.flags):
        fiber = W.fiber_matrix(x)  # n x r
        spaces = []
        dims = [0]
        for m in range(1, fl.chain_length):
            ann = kernel_basis(F, fl.subspace(m), ncols=n)
            constraint = matmul(F, ann, fiber)
            pre = kernel_basis(F, constraint, ncols=r)
            red, rk, _ = rref(F, pre)
            spaces.append(red[:rk])
            dims.append(rk)
        dims.append(r)
        jumps = tuple(b - a for a, b in zip(dims, dims[1:]))
        flags.append(Flag(jumps, tuple(spaces)))
    return ParabolicBundle(sub_bundle, V.points, tuple(flags), V.weights)


def quotient_parabolic(V: ParabolicBundle, W: Subbundle) -> ParabolicBundle:
    """The quotient bundle with the image flags and unchanged weights."""
    if W.rank == V.rank:
        raise FullRank("quotient by a full-rank subbundle is zero")
    F = V.field
    Q, qmap = quotient_bundle(V.bundle, W)
    theta = induced_quot_datum(V, W)
    flags = []
    for idx, (x, fl) in enumerate(zip(V.points, V.flags)):
        proj_t = tuple(zip(*qmap.at(x)))
        spaces = []
        for m in range(1, fl.chain_length):
            imgs = matmul(F, fl.subspace(m), proj_t)
            red, rk, _ = rref(F, imgs)
            spaces.append(red[:rk])
        jumps = tuple(
            a - b for a, b in zip(fl.jumps, theta.jumps[idx])
        )
        flags.append(flag_make(F, Q.rank, jumps, tuple(spaces)))
    return ParabolicBundle(Q, V.points, tuple(flags), V.weights)


def _compatible(A: ParabolicBundle, B: ParabolicBundle):
    if A.field != B.field:
        raise IncompatibleShape("bundles live over different fields")
    if A.points != B.points:
        raise IncompatibleShape("bundles have different marked points")
    for fa, fb in zip(A.flags, B.flags):
        if fa.chain_length != fb.chain_length:
            raise IncompatibleShape("flag chain lengths differ")


def hom_parabolic(A: ParabolicBundle, B: ParabolicBundle):
    """Flag-preserving sheaf maps A -> B: dimension plus an echelon basis.

    A map is a matrix with polynomial entries within the twist degree bounds
    whose fiber evaluation at each marked point carries A's flag members into
    B's.  Weights never enter.
    """
    _compatible(A, B)
    F = A.field
    nA, nB = A.rank, B.rank
    slots = []  # (row in B, col in A, exponent)
    for j in range(nB):
        for k in range(nA):
            bound = B.bundle.twists[j] - A.bundle.twists[k]
            for e in range(bound + 1):
                slots.append((j, k, e))
    nvars = len(slots)
    if nvars == 0:
        return 0, ()
    constraints = []
    for x, fa, fb in zip(A.points, A.flags, B.flags):
        powers = [F.pow(x, e) for e in range(max(s[2] for s in slots) + 1)]
        for m in range(1, fa.chain_length):
            za = fa.subspace(m)
            ann = kernel_basis(F, fb.subspace(m), ncols=nB)
            for u in za:
                for z in ann:
                    row = []
                    for (j, k, e) in slots:
                        row.append(F.mul(F.mul(z[j], u[k]), powers[e]))
                    constraints.append(tuple(row))
    basis = kernel_basis(F, constraints, ncols=nvars)
    red, rk, _ = rref(F, basis)
    mats = []
    for vec in red[:rk]:
        mat = [[[] for _ in range(nA)] for _ in range(nB)]
        for val, (j, k, e) in zip(vec, slots):
            coeffs = mat[j][k]
            while len(coeffs) <= e:
                coeffs.append(0)
            coeffs[e] = val
        mats.append(tuple(tuple(pnorm(c) for c in row) for row in mat))
    return rk, tuple(mats)


def direct_sum(A: ParabolicBundle, B: ParabolicBundle | None) -> ParabolicBundle:
    """Blockwise direct sum; the second summand may be the zero sentinel."""
    if B is None:
        return A
    _compatible(A, B)
    if A.weights != B.weights:
        raise IncompatibleShape("weights differ between summands")
    F = A.field
    nA, nB = A.rank, B.rank
    concat = A.bundle.twists + B.bundle.twists
    order = sorted(range(nA + nB), key=lambda i: (-concat[i], i))
    twists = tuple(concat[i] for i in order)
    flags = []
    for fa, fb in zip(A.flags, B.flags):
        spaces = []
        for m in range(1, fa.chain_length):
            rows = []
            for v in fa.subspace(m):
                full = tuple(v) + (0,) * nB
                rows.append(tuple(full[i] for i in order))
            for v in fb.subspace(m):
                full = (0,) * nA + tuple(v)
                rows.append(tuple(full[i] for i in order))
            red, rk, _ = rref(F, rows)
            spaces.append(red[:rk])
        jumps = tuple(a + b for a, b in zip(fa.jumps, fb.jumps))
        flags.append(Flag(jumps, tuple(spaces)))
    return ParabolicBundle(
        SplitBundle(F, twists), A.points, tuple(flags), A.weights
    )
