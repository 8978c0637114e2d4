"""Slope stratification engine: maximal destabilizers, canonical filtrations,
dominance comparisons, point counts and finiteness bound sets.

Everything reduces to exhaustive subbundle enumeration over windows whose
completeness follows from two bounds: a rank-r subbundle of a split bundle
has sheaf degree at most the sum of the r largest twists, and the parabolic
correction at each marked point lies strictly between 0 and the rank.
Enumerations are cached per (field, twists, rank, degree) since they do not
depend on flags or weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    degree_from_datum,
    flag_make,
    induced_quot_datum,
    parabolic_degree,
)
from .poly import pmap, peval, pnorm
from .rat import ceil_frac, floor_frac
from .sheaves import (
    DEFAULT_BUDGET,
    SplitBundle,
    Subbundle,
    enumerate_candidate_count,
    enumerate_subbundles,
    full_subbundle,
    zero_subbundle,
)

_ENUM_CACHE: dict = {}


def _enum(E: SplitBundle, r: int, d: int, min_tw: int, budget: int):
    """Cached window; a hit still raises BudgetExceeded past the budget."""
    key = (E.field.key(), E.twists, r, d, min_tw)
    hit = _ENUM_CACHE.get(key)
    if hit is None:
        subs = enumerate_subbundles(E, r, d, min_tw, budget)
        hit = _ENUM_CACHE[key] = (enumerate_candidate_count(E, r, d, min_tw), subs)
    count, subs = hit
    if count > budget:
        raise BudgetExceeded(count, budget)
    return subs


def _min_col_twist(E: SplitBundle, r: int, d: int) -> int:
    # any nonincreasing twist vector summing to d has entries >= d - (r-1)*a_1
    return d - (r - 1) * max(E.twists)


def _window_floor(bound: Fraction, npts: int, strict: bool) -> int:
    """Least sheaf degree d compatible with parabolic degree >= / > bound.

    The marked-point correction lies strictly inside (0, r*npts), so with at
    least one point even a non-strict slope target forces d strictly above
    bound - r*npts (already folded into `bound` by the caller).
    """
    if strict or npts > 0:
        return floor_frac(bound) + 1
    return ceil_frac(bound)


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


def max_destabilizing(
    V: ParabolicBundle, U: Subbundle | None = None, budget: int = DEFAULT_BUDGET
) -> Subbundle:
    """The subbundle strictly above U with maximal relative slope, then rank.

    The search runs over ranks above rank(U) and a sheaf-degree window kept
    complete for the current best slope; the whole bundle seeds the search, so
    a semistable bundle returns itself.  Uniqueness of the maximizer and its
    containment of every same-slope candidate are asserted on every call.
    """
    E = V.bundle
    n = E.rank
    if U is None:
        U = zero_subbundle(E)
    rU = U.rank
    dU = parabolic_degree(V, U)
    npts = len(V.points)
    full = full_subbundle(E)
    best = (parabolic_degree(V) - dU) / (n - rU)
    hits = [(full, best)]
    for r in range(rU + 1, n):
        d = sum(E.twists[:r])
        while True:
            lower = _window_floor(best * (r - rU) + dU - r * npts, npts, False)
            if d < lower:
                break
            for W in _enum(E, r, d, _min_col_twist(E, r, d), budget):
                if not W.contains(U):
                    continue
                slope = (degree_from_datum(V, induced_quot_datum(V, W)) - dU) / (
                    r - rU
                )
                if slope >= best:
                    hits.append((W, slope))
                    if slope > best:
                        best = slope
            d -= 1
    top = [W for W, s in hits if s == best]
    max_rank = max(W.rank for W in top)
    winners = [W for W in top if W.rank == max_rank]
    unique = {(W.col_twists, W.key) for W in winners}
    if len(unique) != 1:
        raise NonUniqueMaximum(
            f"{len(unique)} distinct maximizers of slope {best} at rank {max_rank}"
        )
    winner = winners[0]
    for W in top:
        if not winner.contains(W):
            raise NonUniqueMaximum(
                "a maximal-slope subbundle escapes the rank-maximal one"
            )
    return winner


_FILT_CACHE: dict = {}


def hn_filtration(
    V: ParabolicBundle, budget: int = DEFAULT_BUDGET, certify: bool = True
) -> HNFiltration:
    """Greedy chain of maximal destabilizers; graded pieces certified.

    Results are memoized per bundle: every downstream predicate (membership,
    witnesses, semistability) shares one computation.
    """
    cache_key = (V, budget, certify)
    hit = _FILT_CACHE.get(cache_key)
    if hit is not None:
        return hit
    E = V.bundle
    n = E.rank
    steps = []
    U = zero_subbundle(E)
    while U.rank < n:
        W = max_destabilizing(V, U, budget)
        steps.append(W)
        U = W
    slopes = []
    prev = zero_subbundle(E)
    prev_deg = Fraction(0)
    for W in steps:
        deg = parabolic_degree(V, W)
        slopes.append((deg - prev_deg) / (W.rank - prev.rank))
        prev, prev_deg = W, deg
    for a, b in zip(slopes, slopes[1:]):
        if not a > b:  # pragma: no cover
            raise NonUniqueMaximum("graded slopes fail to decrease strictly")
    if certify:
        _certify_graded(V, steps, slopes, budget)
    data = tuple(induced_quot_datum(V, W) for W in steps)
    filt = HNFiltration(V, tuple(steps), data, tuple(slopes))
    _FILT_CACHE[cache_key] = filt
    return filt


def _certify_graded(V, steps, slopes, budget):
    """Exhaustively confirm each graded piece is semistable.

    Re-enumerates intermediate subbundles U_{j-1} < W < U_j and checks none
    beats the step slope; a saturated W of the step's own rank contained in
    the step is the step itself, so those ranks carry no information.
    """
    E = V.bundle
    npts = len(V.points)
    prev = zero_subbundle(E)
    prev_deg = Fraction(0)
    for W_step, sigma in zip(steps, slopes):
        for r in range(prev.rank + 1, W_step.rank):
            d = sum(E.twists[:r])
            while True:
                lower = _window_floor(
                    sigma * (r - prev.rank) + prev_deg - r * npts, npts, True
                )
                if d < lower:
                    break
                for W in _enum(E, r, d, _min_col_twist(E, r, d), budget):
                    if not (W.contains(prev) and W_step.contains(W)):
                        continue
                    slope = (
                        degree_from_datum(V, induced_quot_datum(V, W)) - prev_deg
                    ) / (r - prev.rank)
                    if slope > sigma:  # pragma: no cover
                        raise NonUniqueMaximum(
                            "graded piece admits a destabilizing subbundle"
                        )
                d -= 1
        prev = W_step
        prev_deg = parabolic_degree(V, W_step)


def is_semistable(V: ParabolicBundle, budget: int = DEFAULT_BUDGET) -> bool:
    return hn_filtration(V, budget).length == 1


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


def complete_flag(V: ParabolicBundle, budget: int = DEFAULT_BUDGET):
    """A full chain with rank-one graded pieces, maximal degree at each step."""
    from .sheaves import quotient_bundle

    E = V.bundle
    n = E.rank
    chain = []
    U = zero_subbundle(E)
    while U.rank < n:
        if U.rank == 0:
            top = max(E.twists)
        else:
            Q, _ = quotient_bundle(E, U)
            top = Q.twists[0]
        d = U.degree + top
        cands = [
            W
            for W in _enum(E, U.rank + 1, d, _min_col_twist(E, U.rank + 1, d), budget)
            if W.contains(U)
        ]
        if not cands:  # pragma: no cover
            raise AssertionError("no line extension found at the top twist")
        U = min(cands, key=Subbundle.sort_key)
        chain.append(U)
    return tuple(chain)


# -- point enumerators ----------------------------------------------------------


def check_quot_datum(V: ParabolicBundle, theta: QuotDatum):
    """Raise ShapeMismatch unless theta can be the datum of a subbundle of V:
    rank 1..n, and at each marked point a jump vector with one nonnegative
    entry per flag block summing to the rank."""
    if theta.rank < 1 or theta.rank > V.rank:
        raise ShapeMismatch(f"datum rank {theta.rank} out of range")
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
    """All subbundles whose induced invariant equals theta, in key order."""
    check_quot_datum(V, theta)
    E = V.bundle
    d = theta.degree
    out = [
        W
        for W in _enum(E, theta.rank, d, _min_col_twist(E, theta.rank, d), budget)
        if induced_quot_datum(V, W) == theta
    ]
    return tuple(sorted(out, key=Subbundle.sort_key))


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
    """All nested chains matching the filtration datum, as tuples of steps."""
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
    return tuple(
        sorted(chains, key=lambda ch: tuple(W.sort_key() for W in ch))
    )


def filtration_datum(filt: HNFiltration):
    """Invariants of the proper steps (the full step carries no information)."""
    return tuple(
        theta for W, theta in zip(filt.steps, filt.step_data) if W.rank < filt.bundle.rank
    )


# -- finiteness bound sets -------------------------------------------------------


def enumerate_F(P, n: int, num_points: int):
    """Finite superset of the classical data compatible with the bound P.

    Nonincreasing n-tuples in (1/n!)Z with integer total, squeezed between
    P_1 and sum(P) - n*|I| - (n-1)*P_1.
    """
    P = tuple(Fraction(x) for x in P)
    fact = math.factorial(n)
    hi = P[0]
    lo = sum(P) - n * num_points - (n - 1) * P[0]
    lo_i = ceil_frac(lo * fact)
    hi_i = floor_frac(hi * fact)
    out = []

    def rec(prefix, cap, total):
        if len(prefix) == n:
            if total % fact == 0:
                out.append(tuple(Fraction(v, fact) for v in prefix))
            return
        for v in range(min(cap, hi_i), lo_i - 1, -1):
            rec(prefix + [v], v, total + v)

    rec([], hi_i, 0)
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
        z_lo = ceil_frac(lo * fact - x)
        z_hi = floor_frac(hi * fact - x)
        for z in range(z_lo, z_hi + 1):
            values.add(Fraction(z + x, fact))
    vals = sorted(values, reverse=True)
    total = sum(Q)
    out = []

    def rec(prefix, start, remaining):
        k = len(prefix)
        if k == n:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        left = n - k
        for i in range(start, len(vals)):
            v = vals[i]
            if v * left < remaining:
                break  # vals descend: everything later is smaller
            if remaining - v > (left - 1) * v:
                continue
            if remaining - v < (left - 1) * vals[-1]:
                continue
            rec(prefix + [v], i, remaining - v)

    rec([], 0, total)
    return tuple(sorted(out))


def sigma_candidates(P, n: int, num_points: int, chain_lengths=None):
    """All filtration data a chain realizing the datum P could carry.

    Step ranks are the block boundaries of P; step degrees range over an
    integer window of width rank*|I| below the block prefix sum; jump vectors
    are unconstrained nonnegative compositions of the rank.
    """
    P = tuple(Fraction(x) for x in P)
    if len(P) != n:
        raise LengthMismatch(f"datum has length {len(P)}, expected {n}")
    if chain_lengths is None:
        chain_lengths = (n,) * num_points
    ranks = []
    for i in range(1, n):
        if P[i] != P[i - 1]:
            ranks.append(i)
    if not ranks:
        return ()

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    step_choices = []
    prefix = Fraction(0)
    idx = 0
    for k in ranks:
        while idx < k:
            prefix += P[idx]
            idx += 1
        d_lo = ceil_frac(prefix - k * num_points)
        d_hi = floor_frac(prefix)
        jump_lists = [
            sorted(compositions(k, N)) for N in chain_lengths
        ]
        choices = []
        for d in range(d_lo, d_hi + 1):
            def build(acc, lists):
                if not lists:
                    choices.append(QuotDatum(k, d, tuple(acc)))
                    return
                for j in lists[0]:
                    build(acc + [j], lists[1:])

            build([], jump_lists)
        step_choices.append(choices)
    out = [()]
    for choices in step_choices:
        out = [datum + (c,) for datum in out for c in choices]
    return tuple(sorted(out, key=lambda a: tuple((t.rank, t.degree, t.jumps) for t in a)))


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
