"""Acceptance gate: every exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The suite used throughout is every rank-2 bundle over F_2 and F_3 with twists
in {0, -1}, one or two marked points, all full flags, and weights from the
fixed three-point grid (288 instances).
"""

import math
import random
import time
from fractions import Fraction

from parahn.gf import field_make
from parahn.hn import (
    FlagFamily,
    enumerate_B,
    enumerate_F,
    family_scan,
    fil_points,
    find_P_destabilizing,
    hn_datum,
    hn_filtration,
    hn_leq,
    sigma_candidates,
)
from parahn.parabolic import (
    ParabolicBundle,
    QuotDatum,
    hom_parabolic,
    parabolic_degree,
    quotient_parabolic,
    sub_parabolic,
)
from parahn.poly import pnorm
from parahn.sheaves import SplitBundle, enumerate_subbundles, quotient_bundle
from parahn.theta import is_admissible, theta_filtration, wt_chi, wt_combined, wt_det

from conftest import (
    F3,
    add_row_multiple,
    make_rank2,
    one_point_aligned,
    rank2_suite,
    two_point_aligned,
    two_point_generic,
)
from oracles import (
    TransitionBundle,
    birkhoff_factorize,
    chi_pairing,
    laurent_matmul,
    lfrom_poly,
    lmonomial,
    poly_matmul,
    proper_step_data,
    rank2_oracle,
    smith_form,
)


def report(num, text):
    print(f"\nACCEPTANCE {num:>2}: PASS - {text}", flush=True)


def _suite_data():
    """hn data for the whole suite, computed once and shared."""
    if not hasattr(_suite_data, "cache"):
        data = []
        for V in rank2_suite():
            filt = hn_filtration(V)
            data.append((V, filt, hn_datum(filt)))
        _suite_data.cache = data
    return _suite_data.cache


def test_criterion_01_fixture_hn_data():
    expected = {
        "one point aligned": (one_point_aligned, (Fraction(3, 4), Fraction(1, 4))),
        "two point generic": (two_point_generic, (Fraction(1), Fraction(1))),
        "two point aligned": (two_point_aligned, (Fraction(3, 2), Fraction(1, 2))),
    }
    times = []
    for name, (build, datum) in expected.items():
        V = build()
        t0 = time.monotonic()
        got = hn_datum(hn_filtration(V))
        dt = time.monotonic() - t0
        assert got == datum, f"{name}: got {got}"
        assert dt < 5.0, f"{name}: took {dt:.2f}s"
        times.append(dt)
    report(1, f"fixture HN data exact over F_3, max {max(times):.3f}s per fixture")


def test_criterion_02_greedy_matches_exhaustive_oracle():
    t0 = time.monotonic()
    suite = rank2_suite()
    assert len(suite) >= 200
    agree = 0
    for V, filt, datum in _suite_data():
        oracle_datum, oracle_line = rank2_oracle(V)
        assert datum == oracle_datum, f"datum mismatch on {V}"
        if oracle_line is None:
            assert filt.length == 1
        else:
            assert filt.length == 2 and filt.steps[0] == oracle_line
        agree += 1
    dt = time.monotonic() - t0
    assert dt < 600.0, f"suite took {dt:.1f}s"
    report(2, f"HN engine equals exhaustive oracle on {agree}/{len(suite)} instances in {dt:.1f}s")


def test_criterion_03_scalar_extension_invariance():
    t0 = time.monotonic()
    checked = 0
    for V, _, datum in _suite_data():
        for m in (2, 3):
            ext = hn_datum(hn_filtration(V.extend_scalars(m)))
            assert ext == datum, f"datum changed under extension m={m}"
            checked += 1
    dt = time.monotonic() - t0
    report(3, f"hn datum invariant under scalar extension, {checked} checks in {dt:.1f}s")


def _family():
    E = SplitBundle(F3, (0, 0))
    lam = ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 4), Fraction(3, 4)))
    return lambda m: FlagFamily(
        bundle=E,
        points=(0, 1),
        jumps=((1, 1), (1, 1)),
        subspace_polys=((((pnorm((1,)), ()),),), (((pnorm((1,)), pnorm((0, 1))),),)),
        weights=lam,
        extension_degree=m,
    )


def test_criterion_04_semicontinuity_signature():
    special = (Fraction(3, 2), Fraction(1, 2))
    generic = (Fraction(1), Fraction(1))
    for m in (1, 2):  # F_3 and F_9
        scan = family_scan(_family()(m))
        values = dict(scan.values)
        assert values[0] == special
        for u, datum in scan.values:
            if u != 0:
                assert datum == generic
        assert scan.minimum == generic
        assert hn_leq(generic, special)
    report(4, "flag family attains (1,1) generically and (3/2,1/2) at u=0 over F_3 and F_9")


def test_criterion_05_destabilizer_soundness():
    checked = 0
    for V, filt, datum in _suite_data():
        deg = parabolic_degree(V)
        for P in enumerate_B(datum, V.weights):
            if sum(P) != deg:
                continue
            member = hn_leq(datum, P)
            witness = find_P_destabilizing(V, P)
            assert (witness is None) == member
            if witness is not None:
                r = witness.rank
                prefix = sum(P[:r])
                slope = parabolic_degree(V, witness) / r
                assert slope > Fraction(prefix, 1) / r
            checked += 1
    report(5, f"witness iff not member, prefix bound violated, {checked} (V, P) pairs")


def test_criterion_06_rigidity_proxy():
    unstable = 0
    for V, filt, _ in _suite_data():
        if filt.length == 1:
            continue
        U = filt.steps[0]
        dim, _ = hom_parabolic(sub_parabolic(V, U), quotient_parabolic(V, U))
        assert dim == 0
        unstable += 1
    assert unstable > 0
    report(6, f"Hom(U1, V/U1) = 0 on all {unstable} unstable instances")


def test_criterion_07_quot_and_fil_counts():
    from parahn.hn import quot_points

    for q in (2, 3, 5):
        F = field_make(q, 1)
        V = make_rank2(F, (0, 0), (0,), ((1, 0),), ((1, 4), (3, 4)))
        aligned = quot_points(V, QuotDatum(1, 0, ((1, 0),)))
        unaligned = quot_points(V, QuotDatum(1, 0, ((0, 1),)))
        assert len(aligned) == 1
        assert len(unaligned) == q
    singletons = 0
    for V, filt, _ in _suite_data():
        chains = fil_points(V, proper_step_data(filt))
        assert len(chains) == 1
        if filt.length > 1:
            assert chains[0] == filt.steps[:-1]
        singletons += 1
    report(7, f"quot counts 1/q for q in 2,3,5; fil uniqueness on {singletons} instances")


def test_criterion_08_theta_identity_and_stability_equivalence():
    # decomposition identity on >= 100 single-point filtrations
    identities = 0
    for V, filt, _ in _suite_data():
        if len(V.points) != 1 or V.field is not F3:
            continue
        E = V.bundle
        lam = V.weights[0]
        lines = []
        for d in range(max(E.twists), min(E.twists) - 2, -1):
            lines.extend(enumerate_subbundles(E, 1, d, d))
        for W in lines[:4]:
            for m in (0, 2):
                filtr = theta_filtration(V, ((m, W),))
                chi_sum = Fraction(0)
                N = V.flags[0].chain_length
                for i in range(1, N + 1):
                    for j in range(1, N + 1):
                        if i != j:
                            chi_sum += lam[i - 1] * wt_chi(V, filtr, 0, i, j)
                assert wt_det(V, filtr) - 2 * chi_sum == wt_combined(V, filtr)
                identities += 1
    assert identities >= 100
    # stability equivalence over the whole suite
    equiv = 0
    for V, filt, _ in _suite_data():
        E = V.bundle
        mu = parabolic_degree(V) / 2
        d_min = math.floor(mu - len(V.points))
        best = None
        for d in range(max(E.twists), d_min - 1, -1):
            for W in enumerate_subbundles(E, 1, d, d):
                w = wt_combined(V, theta_filtration(V, ((1, W),)))
                if best is None or w > best:
                    best = w
        semistable = filt.length == 1
        assert semistable == (best <= 0)
        if not semistable:
            assert wt_combined(V, theta_filtration(V, ((1, filt.steps[0]),))) > 0
        equiv += 1
    report(8, f"weight identity on {identities} filtrations; stability equivalence on {equiv} instances")


def test_criterion_09_admissibility_region():
    lam = (Fraction(1, 4), Fraction(3, 4))
    ok, region = is_admissible(2, (1, 1), lam)
    assert ok
    bounds = {rel: rhs for _, rel, rhs in region.constraints}
    assert len(region.constraints) == 2
    assert bounds[">="] == Fraction(1, 4)
    assert bounds["<="] == Fraction(3, 4)
    for lhs, _, _ in region.constraints:
        assert lhs == (Fraction(-1), Fraction(1))
    assert chi_pairing(2, (1, 1), (Fraction(1, 8), Fraction(7, 8)), 2, 1) == 1
    report(9, "region is exactly 1/4 <= l2 - l1 <= 3/4; boundary pairing equals 1")


def test_criterion_10_bound_set_containments():
    checked = 0
    for V, filt, datum in _suite_data():
        npts = len(V.points)
        classical = hn_datum(hn_filtration(ParabolicBundle(V.bundle, (), (), ())))
        assert classical in enumerate_F(datum, npts)
        b_set = enumerate_B(datum, V.weights)
        assert datum in b_set
        psi = proper_step_data(filt)
        cands = sigma_candidates(datum, tuple(fl.chain_length for fl in V.flags))
        if len(set(datum)) == 1:
            assert psi == () and cands == ()
        else:
            assert psi in cands
        for P in b_set:
            if hn_leq(datum, P):
                assert classical in enumerate_F(P, npts)
        checked += 1
    report(10, f"F/B/sigma containments hold on all {checked} instances")


def _random_poly_matrix(rng, F, n, r, maxdeg=3):
    return tuple(
        tuple(
            pnorm(tuple(rng.randrange(F.q) for _ in range(rng.randint(0, maxdeg))))
            for _ in range(r)
        )
        for _ in range(n)
    )


def test_criterion_11_structural_round_trips():
    rng = random.Random(2024)
    fields = [field_make(2, 1), field_make(3, 1), field_make(5, 1), field_make(2, 2)]
    smith_count = 0
    while smith_count < 500:
        F = rng.choice(fields)
        n, r = rng.randint(1, 3), rng.randint(1, 3)
        M = _random_poly_matrix(rng, F, n, r)
        U, D, V = smith_form(F, M)
        assert poly_matmul(F, poly_matmul(F, U, D), V) == M
        smith_count += 1
    birkhoff_count = 0
    while birkhoff_count < 500:
        F = rng.choice(fields)
        m = rng.randint(1, 3)
        rows = [
            [lmonomial(1, rng.randint(-2, 2)) if i == j else (0, ()) for j in range(m)]
            for i in range(m)
        ]
        for _ in range(rng.randint(0, 5)):
            i, j = rng.randrange(m), rng.randrange(m)
            if i == j:
                continue
            c = rng.randrange(1, F.q)
            e = rng.randint(-2, 2)
            add_row_multiple(F, rows, i, j, c, e)
        T = TransitionBundle(F, m, tuple(tuple(row) for row in rows))
        twists, a_plus, a_minus = birkhoff_factorize(T)
        diag = tuple(
            tuple(lmonomial(1, twists[i]) if i == j else (0, ()) for j in range(m))
            for i in range(m)
        )
        lhs = laurent_matmul(
            F,
            laurent_matmul(
                F, tuple(tuple(lfrom_poly(e) for e in row) for row in a_plus), diag
            ),
            a_minus,
        )
        assert lhs == T.transition
        birkhoff_count += 1
    # quotient degree additivity across suite subbundles
    additive = 0
    for V, filt, _ in _suite_data()[::5]:
        E = V.bundle
        for d in (max(E.twists), max(E.twists) - 1):
            for W in enumerate_subbundles(E, 1, d, d):
                Q, _ = quotient_bundle(E, W)
                assert sum(Q.twists) == E.degree - W.degree
                qp = quotient_parabolic(V, W)
                assert parabolic_degree(V, W) + parabolic_degree(qp) == parabolic_degree(V)
                additive += 1
        if additive > 400:
            break
    report(
        11,
        f"{smith_count} Smith and {birkhoff_count} Birkhoff round trips bit-exact; "
        f"degree additivity on {additive} quotients",
    )
