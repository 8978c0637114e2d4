import random
from fractions import Fraction

import pytest

from parahn.errors import EqualRanks, FieldMismatch, IncompatibleShape, NotNested
from parahn.gf import field_make
from parahn.parabolic import (
    ParabolicBundle,
    QuotDatum,
    degree_from_datum,
    direct_sum,
    flag_make,
    hom_parabolic,
    induced_quot_datum,
    parabolic_degree,
    parabolic_slope,
    quotient_parabolic,
    relative_slope,
    scaled_degree,
    sub_parabolic,
)
from parahn.sheaves import (
    SplitBundle,
    enumerate_subbundles,
    full_subbundle,
    make_subbundle,
    zero_subbundle,
)

from conftest import F2, F3, make_rank2, one_point_aligned, two_point_aligned, two_point_generic


def axis(E, which):
    cols = [((1,),), ((),)] if which == 0 else [((),), ((1,),)]
    return make_subbundle(E, (0,), tuple(cols))


@pytest.mark.parametrize("points", [(7,), (0, 1, 2)], ids=["7", "0-1-2"])
def test_points_must_be_field_elements(points):
    flag = flag_make(F2, 2, (1, 1), (((1, 0),),))
    w = (Fraction(1, 4), Fraction(3, 4))
    with pytest.raises(FieldMismatch, match=r"outside \[0, 2\)"):
        ParabolicBundle(
            SplitBundle(F2, (0, 0)), points, (flag,) * len(points), (w,) * len(points)
        )


def test_flag_entries_must_be_field_elements():
    with pytest.raises(FieldMismatch, match="element 5"):
        flag_make(F2, 2, (1, 1), (((1, 5),),))


def test_flag_over_a_bigger_field_is_rejected_by_the_bundle():
    flag = flag_make(field_make(3, 2), 2, (1, 1), (((1, 5),),))
    with pytest.raises(FieldMismatch, match=r"element 5 outside \[0, 3\)"):
        ParabolicBundle(
            SplitBundle(F3, (0, 0)), (0,), (flag,), ((Fraction(1, 4), Fraction(3, 4)),)
        )


def test_induced_datum_alignment():
    V = one_point_aligned()
    E = V.bundle
    assert induced_quot_datum(V, axis(E, 0)).jumps == ((1, 0),)
    assert induced_quot_datum(V, axis(E, 1)).jumps == ((0, 1),)
    assert induced_quot_datum(V, full_subbundle(E)).jumps == ((1, 1),)


def test_parabolic_degree_fixtures():
    V = one_point_aligned()
    assert parabolic_degree(V) == 1
    assert parabolic_slope(V) == Fraction(1, 2)
    assert parabolic_degree(V, axis(V.bundle, 0)) == Fraction(3, 4)
    W = two_point_aligned()
    assert parabolic_degree(W) == 2
    assert parabolic_slope(W) == 1


def random_composition(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def test_degree_from_datum_matches_definition():
    # d + sum_x (r - sum_m lambda_m b_m) in Fractions, on weights with mixed
    # denominators, against the D-scaled int computation
    rng = random.Random(8)
    F5 = field_make(5, 1)
    pool = sorted({Fraction(k, q) for q in (7, 9, 11) for k in range(1, q)})
    for _ in range(300):
        n = rng.randint(1, 4)
        points = tuple(rng.sample(range(5), rng.randint(0, 3)))
        flags, weights = [], []
        for _ in points:
            jumps = random_composition(rng, n, rng.randint(1, n + 1))
            eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            dims = [sum(jumps[:m]) for m in range(1, len(jumps))]
            flags.append(flag_make(F5, n, jumps, tuple(tuple(eye[:f]) for f in dims)))
            weights.append(tuple(sorted(rng.sample(pool, len(jumps)))))
        V = ParabolicBundle(SplitBundle(F5, (0,) * n), points, tuple(flags), tuple(weights))
        r = rng.randint(1, n)
        theta = QuotDatum(
            r,
            rng.randint(-5, 5),
            tuple(random_composition(rng, r, fl.chain_length) for fl in flags),
        )
        expected = Fraction(theta.degree) + sum(
            r - sum(l * b for l, b in zip(lam, jumps))
            for lam, jumps in zip(V.weights, theta.jumps)
        )
        assert degree_from_datum(V, theta) == expected
        assert scaled_degree(V, theta) == expected * V.scaled_weights[0]


def test_degree_sandwich(suite):
    for V in suite[::7]:
        d = parabolic_degree(V)
        base = V.bundle.degree
        n = V.rank
        assert base <= d <= base + n * len(V.points)


def test_relative_slope_examples():
    V = two_point_aligned()
    E = V.bundle
    zero = zero_subbundle(E)
    aligned = axis(E, 0)
    assert relative_slope(V, zero, aligned) == Fraction(3, 2)
    assert relative_slope(V, aligned, full_subbundle(E)) == Fraction(1, 2)
    with pytest.raises(EqualRanks):
        relative_slope(V, aligned, aligned)
    transverse = axis(E, 1)
    with pytest.raises(NotNested):
        relative_slope(V, aligned, transverse)


def test_quotient_parabolic_jump_bookkeeping():
    V = one_point_aligned()
    E = V.bundle
    q_aligned = quotient_parabolic(V, axis(E, 0))
    assert q_aligned.flags[0].jumps == (0, 1)
    q_trans = quotient_parabolic(V, axis(E, 1))
    assert q_trans.flags[0].jumps == (1, 0)


def test_degree_additivity_in_quotients():
    for V in (one_point_aligned(), two_point_aligned(), two_point_generic()):
        E = V.bundle
        for which in (0, 1):
            W = axis(E, which)
            total = parabolic_degree(V, W) + parabolic_degree(quotient_parabolic(V, W))
            assert total == parabolic_degree(V)
        for W in enumerate_subbundles(E, 1, -1, -1):
            total = parabolic_degree(V, W) + parabolic_degree(quotient_parabolic(V, W))
            assert total == parabolic_degree(V)


def test_sub_parabolic_matches_induced_degree():
    V = two_point_aligned()
    E = V.bundle
    for W in enumerate_subbundles(E, 1, 0, 0):
        as_bundle = sub_parabolic(V, W)
        assert parabolic_degree(as_bundle) == parabolic_degree(V, W)
        assert as_bundle.bundle.twists == W.col_twists


def test_hom_endomorphisms_preserving_a_line():
    V = one_point_aligned()
    dim, basis = hom_parabolic(V, V)
    assert dim == 3
    for mat in basis:
        # lower-left entry vanishes: the flag line is preserved
        assert mat[1][0] == ()


def test_hom_negative_twist_gap_is_zero():
    F = F3
    A = ParabolicBundle(SplitBundle(F, (1,)), (), (), ())
    B = ParabolicBundle(SplitBundle(F, (0,)), (), (), ())
    dim, _ = hom_parabolic(A, B)
    assert dim == 0
    dim_rev, _ = hom_parabolic(B, A)
    assert dim_rev == 2  # sections of O(1)


def test_hom_dimension_stable_under_extension():
    A = one_point_aligned()
    B = quotient_parabolic(A, axis(A.bundle, 1))
    C = sub_parabolic(A, axis(A.bundle, 0))
    for X, Y in ((A, A), (A, B), (C, A), (B, C)):
        d1, _ = hom_parabolic(X, Y)
        d2, _ = hom_parabolic(X.extend_scalars(2), Y.extend_scalars(2))
        d3, _ = hom_parabolic(X.extend_scalars(3), Y.extend_scalars(3))
        assert d1 == d2 == d3


def test_direct_sum_zero_and_degree():
    V = one_point_aligned()
    assert direct_sum(V, None) is V
    E = V.bundle
    A = sub_parabolic(V, axis(E, 0))
    B = sub_parabolic(V, axis(E, 1))
    S = direct_sum(A, B)
    assert S.rank == 2
    assert S.flags[0].jumps == (1, 1)
    assert parabolic_degree(S) == parabolic_degree(A) + parabolic_degree(B)


def test_direct_sum_rejects_weight_mismatch():
    A = one_point_aligned()
    B = make_rank2(F3, (0, 0), (0,), ((1, 0),), ((1, 3), (2, 3)))
    with pytest.raises(IncompatibleShape):
        direct_sum(A, B)


def _presentation_degree(V, col_twists, mat):
    """Parabolic degree of a raw presentation: sheaf degree plus corrections
    from the fiber spans of the (possibly rank-dropping) evaluated matrix."""
    from parahn.linalg import intersect_dim

    F = V.field
    n = V.rank
    r = len(col_twists)
    deg = Fraction(sum(col_twists))
    for x, fl, lam in zip(V.points, V.flags, V.weights):
        fiber_rows = tuple(
            tuple(pt_eval(F, mat[j][k], x) for j in range(n)) for k in range(r)
        )
        dims = [0]
        for m in range(1, fl.chain_length + 1):
            dims.append(intersect_dim(F, fiber_rows, fl.subspace(m)))
        jumps = [b - a for a, b in zip(dims, dims[1:])]
        deg += r - sum(l * b for l, b in zip(lam, jumps))
    return deg


def pt_eval(F, poly, x):
    from parahn.poly import peval

    return peval(F, poly, x)


def test_saturation_slope_gain(suite):
    # the saturation's slope dominates the slope of any presentation of a
    # subsheaf it contains, and equal degrees force equal subsheaves
    from parahn.sheaves import saturate
    from parahn.poly import pmul

    import random

    rng = random.Random(77)
    for V in suite[:60:3]:
        E = V.bundle
        for W in enumerate_subbundles(E, 1, min(E.twists) - 1, min(E.twists) - 1)[:6]:
            factor = (rng.randrange(E.field.q), 1)  # monic linear multiplier
            mat = tuple((pmul(E.field, factor, row[0]),) for row in W.mat)
            d = (W.col_twists[0] - 1,)
            S = saturate(E, d, mat)
            assert S == W
            assert parabolic_degree(V, S) / S.rank >= _presentation_degree(V, d, mat)
        for W in enumerate_subbundles(E, 1, min(E.twists), min(E.twists))[:6]:
            # already saturated: degrees agree and the subsheaf is unchanged
            S = saturate(E, W.col_twists, W.mat)
            assert S == W
            assert parabolic_degree(V, S) == _presentation_degree(
                V, W.col_twists, W.mat
            )
