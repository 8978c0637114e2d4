"""Weight calculus for integer-graded filtrations and admissible weights.

A graded filtration is a finite list of (weight, subbundle) jumps, implicitly
equal to the whole bundle below the first weight and zero strictly above the
last.  Its combined weight decides slope stability: positive means
destabilizing.  The admissibility region bounds weight gaps per marked point
so that the graded-weight criterion applies at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadIndex, InvalidFiltration, MultiplePoints
from .parabolic import (
    ParabolicBundle,
    check_weights,
    induced_quot_datum,
    parabolic_degree,
)
from .rat import rat_str


@dataclass(frozen=True)
class ThetaFiltration:
    """Strictly decreasing subbundles at strictly increasing integer weights."""

    jumps: tuple  # ((weight, Subbundle), ...) possibly empty

    def __post_init__(self):
        ws = [w for w, _ in self.jumps]
        if any(a >= b for a, b in zip(ws, ws[1:])):
            raise InvalidFiltration("weights must strictly increase")


def theta_filtration(V: ParabolicBundle, jumps):
    """Validated filtration inside V; listed subbundles are proper & nonzero."""
    jumps = tuple((int(w), W) for w, W in jumps)
    filt = ThetaFiltration(jumps)
    n = V.rank
    prev = None
    for w, W in jumps:
        if W.bundle != V.bundle:
            raise InvalidFiltration("subbundle lives in a different bundle")
        if W.rank == 0 or W.rank == n:
            raise InvalidFiltration("listed members must be proper and nonzero")
        if prev is not None:
            if not prev.contains(W):
                raise InvalidFiltration("members are not nested")
            if prev.rank == W.rank:
                raise InvalidFiltration("members must strictly decrease")
        prev = W
    return filt


def _segments(filt: ThetaFiltration):
    """(multiplicity, member) pairs covering the weights where the value is a
    proper subbundle; the V and 0 tails never contribute to any weight sum."""
    jumps = filt.jumps
    out = []
    for i, (w, W) in enumerate(jumps):
        if i + 1 < len(jumps):
            mult = jumps[i + 1][0] - w
        else:
            mult = 1
        out.append((mult, W))
    return out


def wt_combined(V: ParabolicBundle, filt: ThetaFiltration) -> Fraction:
    """Graded weight of the full stability line: positive = destabilizing."""
    n = V.rank
    deg_v = parabolic_degree(V)
    acc = Fraction(0)
    for mult, W in _segments(filt):
        acc += mult * (parabolic_degree(V, W) * n - deg_v * W.rank)
    return 2 * acc


def wt_chi(V: ParabolicBundle, filt: ThetaFiltration, point: int, i: int, j: int) -> int:
    """Character weight at one marked point for an ordered flag-block pair."""
    if not (0 <= point < len(V.points)):
        raise BadIndex(f"point index {point} out of range")
    fl = V.flags[point]
    N = fl.chain_length
    if not (1 <= i <= N and 1 <= j <= N and i != j):
        raise BadIndex(f"block pair ({i}, {j}) invalid for chain length {N}")
    a = fl.jumps
    acc = 0
    for mult, W in _segments(filt):
        bw = induced_quot_datum(V, W).jumps[point]
        acc += mult * (bw[i - 1] * a[j - 1] - bw[j - 1] * a[i - 1])
    return acc


def wt_det(V: ParabolicBundle, filt: ThetaFiltration) -> int:
    """Sheaf-level determinant weight; defined for a single marked point."""
    if len(V.points) != 1:
        raise MultiplePoints("determinant weight formula needs one marked point")
    n = V.rank
    deg_e = V.bundle.degree
    acc = 0
    for mult, W in _segments(filt):
        # twisting by the point adds the rank to a sheaf degree
        acc += mult * ((W.degree + W.rank) * n - (deg_e + n) * W.rank)
    return 2 * acc


@dataclass(frozen=True)
class WeightRegion:
    """Affine inequalities on the weight vector, one pair per block pair."""

    constraints: tuple  # (lhs coefficient tuple, relation, rhs) records

    def to_jsonable(self):
        return [
            {
                "lhs": [rat_str(c) for c in lhs],
                "rel": rel,
                "rhs": rat_str(rhs),
            }
            for lhs, rel, rhs in self.constraints
        ]


def is_admissible(n: int, jumps, weights):
    """Check the paired gap inequalities; the region is returned regardless.

    The weights must fit the jumps (parabolic.check_weights raises BadWeights).
    """
    lam = [Fraction(w) for w in weights]
    check_weights(jumps, lam)
    N = len(jumps)
    a = list(jumps)
    constraints = []
    ok = True
    for k in range(1, N + 1):
        for l in range(k + 1, N + 1):
            mid = Fraction(sum(a[k - 1 : l - 1]), n)
            skew = Fraction(a[l - 1] - a[k - 1], 2 * n)
            lo = -Fraction(1, 2 * n) + mid + skew
            hi = Fraction(1, 2 * n) + mid + skew
            lhs = tuple(
                Fraction(1) if m == l else Fraction(-1) if m == k else Fraction(0)
                for m in range(1, N + 1)
            )
            constraints.append((lhs, ">=", lo))
            constraints.append((lhs, "<=", hi))
            gap = lam[l - 1] - lam[k - 1]
            if not (lo <= gap <= hi):
                ok = False
    return ok, WeightRegion(tuple(constraints))
