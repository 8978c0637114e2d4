"""Slope stratification engine: canonical (HN) filtrations and their first
steps, dominance comparisons, point counts and finiteness bound sets.

Everything reduces to exhaustive subbundle enumeration over windows whose
completeness follows from two bounds: a rank-r subbundle of a split bundle
has sheaf degree at most the sum of the r largest twists, and the parabolic
correction at each marked point lies strictly between 0 and the rank.  The
HN filtration is read off the HN polygon, the upper concave envelope of
(rank, parabolic degree) over all subbundles, found in one pass over the
windows that can reach it (see hn_filtration).  Inside that pass degrees,
the envelope and the window bounds are D-scaled ints (parabolic.scaled_degree,
D the lcm of the weight denominators); Fractions appear only in the slopes
and in the error messages.  Enumerations are cached per (field, twists,
rank, degree) since they do not depend on flags or weights; each cached
window also keeps, per (point, flag), the induced jumps of all its
subbundles, so a sweep over flag tuples reads a window's degrees off that
memo and builds an induced datum only for the subbundles that reach the
envelope.

The finiteness bound sets take their sizes from their inputs: the rank n is
the length of the datum, and the marked points are counted by num_points
(enumerate_F), the weight vectors (enumerate_B) or the flag chain lengths
(sigma_candidates).  Their tuples come from itertools or from the one pruned
generator sheaves.nonincreasing_tuples, which also yields twist vectors.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    BudgetExceeded,
    LengthMismatch,
    NoComparableStratum,
    NonUniqueMaximum,
    DegenerateFlagAt,
    ShapeMismatch,
)
from .parabolic import (
    ParabolicBundle,
    QuotDatum,
    check_flag_shape,
    flag_make,
    full_datum,
    induced_quot_datum,
    parabolic_degree,
    scaled_degree,
)
from .poly import pmap, peval, pnorm
from .sheaves import (
    DEFAULT_BUDGET,
    SplitBundle,
    Subbundle,
    enumerate_candidate_count,
    enumerate_subbundles,
    full_subbundle,
    nonincreasing_tuples,
    zero_subbundle,
)

_ENUM_CACHE: dict = {}


def _enum(E: SplitBundle, r: int, d: int, min_tw: int, budget: int):
    """Cached window; a hit still raises BudgetExceeded past the budget.

    Next to its subbundles each window keeps a memo, filled by
    _window_degrees: (point, flag) -> every subbundle's induced jumps.
    """
    key = (E.field.key(), E.twists, r, d, min_tw)
    hit = _ENUM_CACHE.get(key)
    if hit is None:
        subs = enumerate_subbundles(E, r, d, min_tw, budget)
        hit = _ENUM_CACHE[key] = (enumerate_candidate_count(E, r, d, min_tw), subs, {})
    count, subs, _ = hit
    if count > budget:
        raise BudgetExceeded(count, budget)
    return subs


def _window_degrees(V: ParabolicBundle, r: int, d: int, min_tw: int) -> list:
    """D-scaled parabolic degrees of the subbundles of a window _enum has
    cached, in its order: D*(d + r*|I|) minus lambda.b at each point, b a
    subbundle's induced jumps there.  The jumps come from the window's memo,
    so each (point, flag) costs one pass of Flag.induced_jumps per window,
    however many bundles share it."""
    E = V.bundle
    F = E.field
    _, subs, memo = _ENUM_CACHE[(F.key(), E.twists, r, d, min_tw)]
    D, lams = V.scaled_weights
    degs = [D * (d + r * len(V.points))] * len(subs)
    for x, fl, lam in zip(V.points, V.flags, lams):
        jumps = memo.get((x, fl))
        if jumps is None:
            jumps = memo[x, fl] = tuple(fl.induced_jumps(F, W.fiber_rows(x)) for W in subs)
        degs = [g - sum(map(mul, lam, b)) for g, b in zip(degs, jumps)]
    return degs


def _min_col_twist(E: SplitBundle, r: int, d: int) -> int:
    # any nonincreasing twist vector summing to d has entries >= d - (r-1)*a_1
    return d - (r - 1) * max(E.twists)


@dataclass(frozen=True)
class HNFiltration:
    """Canonical slope filtration: strictly nested steps, the last one full."""

    bundle: ParabolicBundle
    steps: tuple  # Subbundles U_1 < ... < U_l = V
    step_data: tuple  # QuotDatum of each U_j
    slopes: tuple  # relative slope of U_j / U_{j-1}

    @property
    def length(self) -> int:
        return len(self.steps)


def hn_datum(filt: HNFiltration):
    """Graded slopes with multiplicity, nonincreasing."""
    out = []
    prev_rank = 0
    for W, s in zip(filt.steps, filt.slopes):
        out.extend([s] * (W.rank - prev_rank))
        prev_rank = W.rank
    return tuple(out)


def hn_leq(P, Q) -> bool:
    """Dominance: equal totals and every proper prefix sum of P at most Q's."""
    if len(P) != len(Q):
        raise LengthMismatch(f"data have lengths {len(P)} and {len(Q)}")
    if sum(P) != sum(Q):
        return False
    acc_p = acc_q = Fraction(0)
    for p, q in zip(P[:-1], Q[:-1]):
        acc_p += p
        acc_q += q
        if acc_p > acc_q:
            return False
    return True


_FILT_CACHE: dict = {}


def hn_filtration(V: ParabolicBundle, budget: int = DEFAULT_BUDGET) -> HNFiltration:
    """The HN filtration, read off the HN polygon in one pass over the windows.

    The polygon is the upper concave envelope of the points
    (rank W, pardeg W) over all subbundles W, with (0, 0) and (n, pardeg V).
    Ranks 1..n-1 are scanned in turn; at each rank the degree is lowered
    while the window can still reach the envelope of the points found so
    far.  That envelope only rises, so every subbundle on the final polygon
    is scanned, and each one's induced datum and degree is computed once.
    The steps are the subbundles at the vertices.  Asserted on the polygon,
    as NonUniqueMaximum: each vertex is attained by exactly one subbundle,
    and every subbundle on an edge lies between the steps at its two ends
    (so the steps are nested).

    Degrees and heights are D-scaled ints (scaled_degree, D the lcm of the
    weight denominators).  At rank r the envelope's height is bounded by
    two ints, lo = floor(height) and need = ceil(height), each the max over
    the points (s, h) found so far of h plus the floor (or ceiling) of
    (top - h)(r - s)/(n - s).  The marked-point correction of a rank-r
    subbundle lies strictly inside (0, D*r*|I|), so a window of sheaf
    degree d can reach the envelope only if D*(d + r*|I|) > lo, or, with
    no marked points, D*d >= need; these are the windows of the unscaled
    bound, so they do not depend on D.  A window's degrees come from its
    memo of induced jumps (_window_degrees), and a subbundle reaches the
    envelope when deg >= need; only those get an induced datum.

    Results are memoized per bundle: every downstream predicate (membership,
    witnesses, semistability) shares one computation.
    """
    cache_key = (V, budget)
    hit = _FILT_CACHE.get(cache_key)
    if hit is not None:
        return hit
    E = V.bundle
    n = E.rank
    npts = len(V.points)
    D = V.scaled_weights[0]
    top = scaled_degree(V, full_datum(V))
    best = {0: 0}  # rank -> greatest D-scaled parabolic degree found
    found = []  # (W, datum, D-scaled degree) of each subbundle that reached the envelope
    for r in range(1, n):
        # floor and ceiling of the envelope's height at rank r
        lo = max(h + (top - h) * (r - s) // (n - s) for s, h in best.items())
        need = max(h - (h - top) * (r - s) // (n - s) for s, h in best.items())
        d = sum(E.twists[:r])
        while (D * (d + r * npts) > lo) if npts else (D * d >= need):
            min_tw = _min_col_twist(E, r, d)
            subs = _enum(E, r, d, min_tw, budget)
            for W, deg in zip(subs, _window_degrees(V, r, d, min_tw)):
                if deg >= need:
                    found.append((W, induced_quot_datum(V, W), deg))
                    best[r] = lo = need = deg
            d -= 1
    hull = []  # the polygon's vertices, (0, 0) to (n, top)
    for p in sorted(best.items()) + [(n, top)]:
        while len(hull) > 1 and _not_above(hull[-2], hull[-1], p):
            hull.pop()
        hull.append(p)
    ranks = [r for r, _ in hull]
    last = len(hull) - 1
    on = []  # (edge, W, datum) of each subbundle on the polygon
    for W, theta, deg in found:
        j = bisect_left(ranks, W.rank)
        (r0, h0), (r1, h1) = hull[j - 1], hull[j]
        if deg * (r1 - r0) == h0 * (r1 - W.rank) + h1 * (W.rank - r0):
            on.append((j, W, theta))
    steps, data = [zero_subbundle(E)], []
    for j in range(1, last):
        at = {W.sort_key(): (W, th) for i, W, th in on if i == j and W.rank == ranks[j]}
        if len(at) != 1:
            raise NonUniqueMaximum(
                f"{len(at)} distinct subbundles attain the polygon vertex at "
                f"rank {ranks[j]}, parabolic degree {Fraction(hull[j][1], D)}"
            )
        ((W, theta),) = at.values()
        steps.append(W)
        data.append(theta)
    steps.append(full_subbundle(E))
    data.append(full_datum(V))
    # each subbundle on edge j, its upper vertex included, lies between the
    # steps at the two ends; the zero and the full subbundle need no test
    for j, W, _ in on:
        if not W.contains(steps[j - 1]) or not (
            j == last or W is steps[j] or steps[j].contains(W)
        ):
            raise NonUniqueMaximum(
                f"a subbundle of rank {W.rank} on the polygon escapes the steps "
                f"at ranks {ranks[j - 1]} and {ranks[j]}"
            )
    slopes = tuple(
        Fraction(h1 - h0, (r1 - r0) * D) for (r0, h0), (r1, h1) in zip(hull, hull[1:])
    )
    filt = HNFiltration(V, tuple(steps[1:]), tuple(data), slopes)
    _FILT_CACHE[cache_key] = filt
    return filt


def _not_above(a, b, c) -> bool:
    """Whether the point b lies on or below the segment from a to c."""
    return (b[1] - a[1]) * (c[0] - a[0]) <= (c[1] - a[1]) * (b[0] - a[0])


def strata_member(V: ParabolicBundle, P, budget: int = DEFAULT_BUDGET) -> bool:
    return hn_leq(hn_datum(hn_filtration(V, budget)), P)


def find_P_destabilizing(
    V: ParabolicBundle, P, budget: int = DEFAULT_BUDGET
) -> Subbundle | None:
    """A witness subbundle violating its prefix bound, or None if none exists.

    Requires sum(P) equal to the parabolic degree; the witness is the
    filtration step below the largest violating prefix index.
    """
    n = V.rank
    if len(P) != n:
        raise LengthMismatch(f"datum has length {len(P)}, rank is {n}")
    if sum(P) != parabolic_degree(V):
        raise NoComparableStratum(
            "datum total differs from the parabolic degree"
        )
    filt = hn_filtration(V, budget)
    nu = hn_datum(filt)
    if hn_leq(nu, P):
        return None
    m0 = None
    acc_n = acc_p = Fraction(0)
    for m in range(1, n):
        acc_n += nu[m - 1]
        acc_p += P[m - 1]
        if acc_n > acc_p:
            m0 = m
    ranks = [W.rank for W in filt.steps]
    q = 0
    for i, r in enumerate(ranks):
        if r <= m0:
            q = i + 1
    if q == 0:  # pragma: no cover
        raise AssertionError("violating prefix below the first step")
    return filt.steps[q - 1]


# -- point enumerators ----------------------------------------------------------


def check_quot_datum(V: ParabolicBundle, theta: QuotDatum):
    """Raise ShapeMismatch unless theta can be the datum of a subbundle of V:
    rank 1..n, and at each marked point a jump vector with one nonnegative
    entry per flag block summing to the rank."""
    V.bundle.check_subbundle_rank(theta.rank)
    if len(theta.jumps) != len(V.points):
        raise ShapeMismatch("datum needs one jump vector per marked point")
    for i, (jumps, fl) in enumerate(zip(theta.jumps, V.flags)):
        if len(jumps) != fl.chain_length:
            raise ShapeMismatch(
                f"jumps at point index {i}: expected length {fl.chain_length}"
            )
        if sum(jumps) != theta.rank or any(b < 0 for b in jumps):
            raise ShapeMismatch(
                f"jumps at point index {i}: entries must be >= 0 and sum to the rank"
            )


def quot_points(V: ParabolicBundle, theta: QuotDatum, budget: int = DEFAULT_BUDGET):
    """All subbundles whose induced invariant equals theta, in the key order
    (Subbundle.sort_key) that enumerate_subbundles returns its window in."""
    check_quot_datum(V, theta)
    E = V.bundle
    d = theta.degree
    return tuple(
        W
        for W in _enum(E, theta.rank, d, _min_col_twist(E, theta.rank, d), budget)
        if induced_quot_datum(V, W) == theta
    )


def check_fil_datum(V: ParabolicBundle, alpha):
    """Raise ShapeMismatch unless the ranks of the filtration datum alpha
    strictly increase and stay below the rank of V (each step is checked by
    check_quot_datum)."""
    ranks = [theta.rank for theta in alpha]
    if any(b <= a for a, b in zip(ranks, ranks[1:])):
        raise ShapeMismatch("filtration datum ranks must strictly increase")
    if any(r >= V.rank for r in ranks):
        raise ShapeMismatch("filtration datum ranks must stay below the rank")


def fil_points(V: ParabolicBundle, alpha, budget: int = DEFAULT_BUDGET):
    """All nested chains matching the filtration datum, as tuples of steps.

    The chains come out in lexicographic order of their steps' keys: each
    step's quot_points keep enumerate_subbundles' key order, and every chain
    is extended by them in that order."""
    alpha = tuple(alpha)
    check_fil_datum(V, alpha)
    chains = [()]
    for theta in alpha:
        pts = quot_points(V, theta, budget)
        chains = [
            ch + (W,)
            for ch in chains
            for W in pts
            if not ch or W.contains(ch[-1])
        ]
        if not chains:
            return ()
    return tuple(chains)


# -- finiteness bound sets -------------------------------------------------------


def enumerate_F(P, num_points: int):
    """Finite superset of the classical data compatible with the bound P.

    Nonincreasing n-tuples, n = len(P), in (1/n!)Z with integer total,
    squeezed between P_1 and sum(P) - n*|I| - (n-1)*P_1.
    """
    P = tuple(Fraction(x) for x in P)
    n = len(P)
    fact = math.factorial(n)
    lo = math.ceil((sum(P) - n * num_points - (n - 1) * P[0]) * fact)
    nums = range(math.floor(P[0] * fact), lo - 1, -1)
    out = [
        tuple(Fraction(v, fact) for v in t)
        for t in itertools.combinations_with_replacement(nums, n)
        if sum(t) % fact == 0
    ]
    return tuple(sorted(out))


def enumerate_B(Q, weights):
    """Finite lattice superset of the data dominated by Q for these weights.

    Entries live in (1/n!)(Z + X) where X collects the possible weighted jump
    sums with jumps up to n, squeezed between Q_1 and sum(Q) - (n-1)*Q_1;
    tuples are nonincreasing with total sum equal to Q's.
    """
    Q = tuple(Fraction(x) for x in Q)
    n = len(Q)
    fact = math.factorial(n)
    flat = [l for lam in weights for l in lam]
    xs = {Fraction(0)}
    for lam in flat:
        xs = {x - b * lam for x in xs for b in range(n + 1)}
    hi = Q[0]
    lo = sum(Q) - (n - 1) * Q[0]
    values = set()
    for x in xs:
        z_lo = math.ceil(lo * fact - x)
        z_hi = math.floor(hi * fact - x)
        for z in range(z_lo, z_hi + 1):
            values.add(Fraction(z + x, fact))
    vals = sorted(values, reverse=True)
    return tuple(sorted(nonincreasing_tuples(vals, n, sum(Q))))


def sigma_candidates(P, chain_lengths):
    """All filtration data a chain realizing the datum P could carry, with
    one flag of chain_lengths[i] blocks at each marked point i.

    Step ranks are the block boundaries of P; step degrees range over an
    integer window of width rank*|I| below the block prefix sum; jump vectors
    are unconstrained nonnegative compositions of the rank.  The candidates
    come out sorted by (rank, degree, jumps) of each step.
    """
    P = tuple(Fraction(x) for x in P)
    num_points = len(chain_lengths)
    step_choices = []
    for k in range(1, len(P)):
        if P[k] == P[k - 1]:
            continue
        prefix = sum(P[:k])
        jump_lists = [
            [c for c in itertools.product(range(k + 1), repeat=N) if sum(c) == k]
            for N in chain_lengths
        ]
        degrees = range(math.ceil(prefix - k * num_points), math.floor(prefix) + 1)
        step_choices.append(
            [
                QuotDatum(k, d, jumps)
                for d in degrees
                for jumps in itertools.product(*jump_lists)
            ]
        )
    if not step_choices:
        return ()
    return tuple(itertools.product(*step_choices))


# -- families ---------------------------------------------------------------------


@dataclass(frozen=True)
class FlagFamily:
    """A bundle whose flag entries are polynomials in one parameter.

    Evaluating the parameter over the degree-m extension gives an ordinary
    parabolic bundle; degenerate evaluations are reported, never skipped.
    """

    bundle: SplitBundle
    points: tuple
    jumps: tuple  # per point
    subspace_polys: tuple  # per point: per member: rows of polynomial entries
    weights: tuple
    extension_degree: int = 1

    def __post_init__(self):
        for jumps, members in zip(self.jumps, self.subspace_polys):
            check_flag_shape(self.bundle.rank, jumps, members)

    def evaluate(self, u: int) -> ParabolicBundle:
        """The bundle at parameter value u; DegenerateFlagAt when a member
        drops rank or the members stop being nested there."""
        big, embed = self.bundle.field.extension(self.extension_degree)
        E = SplitBundle(big, self.bundle.twists)
        flags = []
        for jumps, members in zip(self.jumps, self.subspace_polys):
            ev = tuple(
                tuple(
                    tuple(peval(big, pmap(pnorm(e), embed), u) for e in row)
                    for row in rows
                )
                for rows in members
            )
            try:
                flags.append(flag_make(big, E.rank, jumps, ev))
            except ShapeMismatch:
                raise DegenerateFlagAt([u]) from None
        points = tuple(embed(x) for x in self.points)
        return ParabolicBundle(E, points, tuple(flags), self.weights)


@dataclass(frozen=True)
class FamilyScan:
    values: tuple  # (parameter value, datum) pairs
    minimum: tuple | None  # the <=-least attained datum, if one exists
    exceeding: tuple  # parameter values attaining something else


def family_scan(
    fam: FlagFamily, eval_points=None, budget: int = DEFAULT_BUDGET
) -> FamilyScan:
    """Per-parameter data plus the semicontinuity summary."""
    big, _ = fam.bundle.field.extension(fam.extension_degree)
    if eval_points is None:
        eval_points = tuple(big.elements())
    degenerate = []
    results = []
    for u in eval_points:
        try:
            Vu = fam.evaluate(u)
        except DegenerateFlagAt:
            degenerate.append(u)
            continue
        results.append((u, hn_datum(hn_filtration(Vu, budget))))
    if degenerate:
        raise DegenerateFlagAt(degenerate)
    data = [d for _, d in results]
    minimum = None
    for cand in data:
        if all(hn_leq(cand, other) for other in data):
            minimum = cand
            break
    exceeding = tuple(u for u, d in results if d != minimum)
    return FamilyScan(tuple(results), minimum, exceeding)
