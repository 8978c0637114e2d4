from fractions import Fraction

import pytest

from parahn.errors import BadIndex, BadWeights, InvalidFiltration, MultiplePoints
from parahn.hn import hn_filtration
from parahn.sheaves import enumerate_subbundles, full_subbundle, make_subbundle
from parahn.theta import (
    ThetaFiltration,
    is_admissible,
    theta_filtration,
    wt_chi,
    wt_combined,
    wt_det,
)

from conftest import F3, one_point_aligned, two_point_aligned
from oracles import chi_pairing


def axis_e1(E):
    return make_subbundle(E, (0,), (((1,),), ((),)))


def line_t1(E):
    return make_subbundle(E, (-1,), (((0, 1),), ((1,),)))


def test_combined_weight_one_point_aligned():
    V = one_point_aligned()
    F = theta_filtration(V, ((1, axis_e1(V.bundle)),))
    assert wt_combined(V, F) == 1  # 2*(3/4*2 - 1*1)


def test_combined_weight_two_point_aligned():
    V = two_point_aligned()
    F = theta_filtration(V, ((1, axis_e1(V.bundle)),))
    assert wt_combined(V, F) == 2  # 2*(3/2*2 - 2*1)


def test_trivial_filtration_weights_vanish():
    V = one_point_aligned()
    F = ThetaFiltration(())
    assert wt_combined(V, F) == 0
    assert wt_det(V, F) == 0
    assert wt_chi(V, F, 0, 1, 2) == 0


def test_chi_weight_aligned_step():
    V = one_point_aligned()
    F = theta_filtration(V, ((1, axis_e1(V.bundle)),))
    assert wt_chi(V, F, 0, 1, 2) == 1
    assert wt_chi(V, F, 0, 2, 1) == -1
    with pytest.raises(BadIndex):
        wt_chi(V, F, 0, 1, 1)
    with pytest.raises(BadIndex):
        wt_chi(V, F, 1, 1, 2)


def test_det_weight_examples():
    V = one_point_aligned()
    assert wt_det(V, theta_filtration(V, ((1, axis_e1(V.bundle)),))) == 0
    assert wt_det(V, theta_filtration(V, ((1, line_t1(V.bundle)),))) == -4
    V2 = two_point_aligned()
    with pytest.raises(MultiplePoints):
        wt_det(V2, theta_filtration(V2, ((1, axis_e1(V2.bundle)),)))


def test_filtration_validation():
    V = one_point_aligned()
    E = V.bundle
    with pytest.raises(InvalidFiltration):
        theta_filtration(V, ((0, full_subbundle(E)),))
    with pytest.raises(InvalidFiltration):
        theta_filtration(V, ((0, axis_e1(E)), (0, axis_e1(E))))


def test_weight_independent_of_step_placement():
    V = one_point_aligned()
    W = axis_e1(V.bundle)
    vals = {wt_combined(V, theta_filtration(V, ((m, W),))) for m in (-3, 0, 1, 7)}
    assert len(vals) == 1


def test_refining_inside_a_segment_changes_nothing():
    # a two-step filtration with a weight gap: inserting a duplicate jump at a
    # weight where the step function already takes that value is a no-op
    from parahn.parabolic import ParabolicBundle, flag_make
    from parahn.sheaves import SplitBundle

    E = SplitBundle(F3, (0, 0, 0))
    flag = flag_make(F3, 3, (1, 1, 1), (((1, 0, 0),), ((1, 0, 0), (0, 1, 0))))
    V = ParabolicBundle(
        E, (0,), (flag,), ((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),)
    )
    line = make_subbundle(E, (0,), (((1,),), ((),), ((),)))
    plane = make_subbundle(E, (0, 0), (((1,), ()), ((), (1,)), ((), ())))
    base = theta_filtration(V, ((0, plane), (3, line)))
    refined = ThetaFiltration(((0, plane), (2, plane), (3, line)))
    assert wt_combined(V, refined) == wt_combined(V, base)
    assert wt_chi(V, refined, 0, 1, 2) == wt_chi(V, base, 0, 1, 2)
    assert wt_det(V, refined) == wt_det(V, base)


def _all_weight_pairs(V):
    pairs = []
    fl = V.flags[0]
    N = fl.chain_length
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i != j:
                pairs.append((i, j))
    return pairs


def _decomposition_residual(V, filt):
    lam = V.weights[0]
    chi_sum = Fraction(0)
    for (i, j) in _all_weight_pairs(V):
        chi_sum += lam[i - 1] * wt_chi(V, filt, 0, i, j)
    return wt_det(V, filt) - 2 * chi_sum - wt_combined(V, filt)


def test_decomposition_identity_single_point():
    V = one_point_aligned()
    E = V.bundle
    count = 0
    for d in (0, -1, -2):
        for W in enumerate_subbundles(E, 1, d, d):
            for m in (0, 1, 3):
                assert _decomposition_residual(V, theta_filtration(V, ((m, W),))) == 0
                count += 1
    assert count >= 100


def test_stability_equivalence_on_fixtures():
    for V in (one_point_aligned(), two_point_aligned()):
        E = V.bundle
        steps = []
        for d in (0, -1):
            steps.extend(enumerate_subbundles(E, 1, d, d))
        max_wt = max(wt_combined(V, theta_filtration(V, ((1, W),))) for W in steps)
        filt = hn_filtration(V)
        assert (filt.length == 1) == (max_wt <= 0)
        if filt.length != 1:
            U = filt.steps[0]
            assert wt_combined(V, theta_filtration(V, ((1, U),))) > 0


def test_chi_pairing_examples():
    assert chi_pairing(2, (1, 1), (Fraction(1, 4), Fraction(3, 4)), 2, 1) == 0
    assert chi_pairing(2, (1, 1), (Fraction(1, 8), Fraction(7, 8)), 2, 1) == 1
    assert chi_pairing(2, (1, 1), (Fraction(1, 4), Fraction(3, 4)), 1, 2) == 0
    lhs = chi_pairing(2, (1, 1), (Fraction(1, 3), Fraction(2, 3)), 1, 2)
    rhs = chi_pairing(2, (1, 1), (Fraction(1, 3), Fraction(2, 3)), 2, 1)
    assert lhs == -rhs
    with pytest.raises(BadIndex):
        chi_pairing(2, (1, 1), (Fraction(1, 4), Fraction(3, 4)), 1, 1)


def test_admissible_region_rank_two():
    ok, region = is_admissible(2, (1, 1), (Fraction(1, 4), Fraction(3, 4)))
    assert ok
    assert len(region.constraints) == 2
    (lhs1, rel1, rhs1), (lhs2, rel2, rhs2) = region.constraints
    assert lhs1 == lhs2 == (Fraction(-1), Fraction(1))
    assert {rel1, rel2} == {">=", "<="}
    bounds = {rel1: rhs1, rel2: rhs2}
    assert bounds[">="] == Fraction(1, 4)
    assert bounds["<="] == Fraction(3, 4)


@pytest.mark.parametrize(
    "lam",
    [(Fraction(1, 4),), (Fraction(0), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 4))],
    ids=["chain-length", "range", "order"],
)
def test_admissibility_rejects_bad_weights(lam):
    with pytest.raises(BadWeights):
        is_admissible(2, (1, 1), lam)


def test_admissibility_decisions():
    assert not is_admissible(2, (1, 1), (Fraction(1, 10), Fraction(9, 10)))[0]
    assert is_admissible(2, (1, 1), (Fraction(1, 8), Fraction(7, 8)))[0]


def test_admissibility_matches_pairing_bound():
    grid = [
        (Fraction(1, 8), Fraction(7, 8)),
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1, 10), Fraction(9, 10)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 5), Fraction(3, 5)),
        (Fraction(1, 6), Fraction(5, 6)),
    ]
    for lam in grid:
        ok, _ = is_admissible(2, (1, 1), lam)
        pair_ok = all(
            chi_pairing(2, (1, 1), lam, l, k) <= 1
            for l, k in ((1, 2), (2, 1))
        )
        assert ok == pair_ok


def test_unstable_bundle_admits_positive_one_step():
    V = two_point_aligned()
    filt = hn_filtration(V)
    assert wt_combined(V, theta_filtration(V, ((1, filt.steps[0]),))) > 0
