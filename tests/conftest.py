"""Shared fixtures: small parabolic bundles over F_2 / F_3 and the rank-2 suite."""

from fractions import Fraction

import pytest

from parahn.gf import field_make
from parahn.parabolic import ParabolicBundle, flag_make
from parahn.sheaves import SplitBundle

from oracles import ladd, lnorm

F2 = field_make(2, 1)
F3 = field_make(3, 1)


def full_flag_through(field, n, vec):
    """Full flag on a rank-n fiber whose first member is the span of vec."""
    jumps = (1,) * n
    members = [ (tuple(vec),) ]
    # higher members are only needed for n == 2 in these tests
    assert n == 2
    return flag_make(field, n, jumps, tuple(members))


def make_rank2(field, twists, points, flag_vecs, lam):
    """Rank-2 bundle with one full flag per point and equal weights."""
    E = SplitBundle(field, twists)
    flags = tuple(full_flag_through(field, 2, v) for v in flag_vecs)
    weights = tuple((Fraction(*lam[0]), Fraction(*lam[1])) for _ in points)
    return ParabolicBundle(E, tuple(points), flags, weights)


def one_point_aligned(field=F3):
    """Trivial rank-2 bundle, one marked point, flag through e1, weights 1/4, 3/4."""
    return make_rank2(field, (0, 0), (0,), ((1, 0),), ((1, 4), (3, 4)))


def two_point_aligned(field=F3):
    """Two marked points, both flags through e1: the constant line destabilizes."""
    return make_rank2(field, (0, 0), (0, 1), ((1, 0), (1, 0)), ((1, 4), (3, 4)))


def two_point_generic(field=F3):
    """Two marked points, transverse flags: semistable."""
    return make_rank2(field, (0, 0), (0, 1), ((1, 0), (1, 1)), ((1, 4), (3, 4)))


def add_row_multiple(F, rows, i, j, c, e):
    """rows[i] += c t^e rows[j] on a square matrix of Laurent polynomials,
    an elementary operation on transition matrices (c nonzero)."""
    for b in range(len(rows)):
        lo, coeffs = rows[j][b]
        rows[i][b] = ladd(F, rows[i][b], lnorm(lo + e, F.row_scale(coeffs, c)))


WEIGHT_GRID = (((1, 4), (3, 4)), ((1, 3), (2, 3)), ((1, 5), (2, 5)))

_SUITE = None


def rank2_suite():
    """Every rank-2 bundle over F_2 and F_3 with twists in {0, -1}, one or two
    marked points, all full flags, weights from the fixed grid."""
    global _SUITE
    if _SUITE is not None:
        return _SUITE
    out = []
    for field in (F2, F3):
        lines = [(1, 0)] + [(c, 1) for c in range(field.q)]
        for twists in ((0, 0), (0, -1), (-1, -1)):
            for pts in ((0,), (0, 1)):
                if len(pts) == 1:
                    combos = [(v,) for v in lines]
                else:
                    combos = [(v, w) for v in lines for w in lines]
                for vecs in combos:
                    for lam in WEIGHT_GRID:
                        out.append(make_rank2(field, twists, pts, vecs, lam))
    _SUITE = tuple(out)
    return _SUITE


@pytest.fixture(scope="session")
def suite():
    return rank2_suite()
