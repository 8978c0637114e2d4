import random
from fractions import Fraction

import pytest

import parahn.hn as hn
from parahn.errors import (
    BudgetExceeded,
    LengthMismatch,
    NoComparableStratum,
    NonUniqueMaximum,
)
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
    quot_points,
    sigma_candidates,
    strata_member,
)
from parahn.linalg import rank
from parahn.parabolic import (
    ParabolicBundle,
    QuotDatum,
    flag_make,
    induced_quot_datum,
    parabolic_degree,
    quotient_parabolic,
    sub_parabolic,
)
from parahn.sheaves import SplitBundle, full_subbundle, make_subbundle

from conftest import (
    F2,
    F3,
    make_rank2,
    one_point_aligned,
    two_point_aligned,
    two_point_generic,
)
from oracles import polygon_certificate, proper_step_data, rank2_oracle


def axis_e1(E):
    return make_subbundle(E, (0,), (((1,),), ((),)))


# -- maximal destabilizing -------------------------------------------------------


def test_max_destabilizing_one_point_aligned():
    V = one_point_aligned()
    W = hn_filtration(V).steps[0]
    assert W == axis_e1(V.bundle)
    assert parabolic_degree(V, W) == Fraction(3, 4)


def test_max_destabilizing_two_point_aligned():
    V = two_point_aligned()
    W = hn_filtration(V).steps[0]
    assert W == axis_e1(V.bundle)
    assert parabolic_degree(V, W) == Fraction(3, 2)


def test_max_destabilizing_generic_is_whole_bundle():
    V = two_point_generic()
    assert hn_filtration(V).steps[0] == full_subbundle(V.bundle)


# -- the HN polygon ----------------------------------------------------------------


def random_bundle(rng, F, twists, npts, jumps):
    """Flags with the given jumps through random bases at distinct random
    points, with random increasing weights of one denominator."""
    n = len(twists)
    flags = []
    for _ in range(npts):
        while True:
            vecs = [tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(n)]
            if rank(F, vecs) == n:
                break
        dims = [sum(jumps[:m]) for m in range(1, len(jumps))]
        flags.append(flag_make(F, n, jumps, tuple(tuple(vecs[:k]) for k in dims)))
    den = rng.choice((5, 7, 9))
    weights = tuple(
        tuple(Fraction(x, den) for x in sorted(rng.sample(range(1, den), len(jumps))))
        for _ in range(npts)
    )
    points = tuple(rng.sample(range(F.q), npts))
    return ParabolicBundle(SplitBundle(F, twists), points, tuple(flags), weights)


def polygon_cases():
    """Seeded rank-3 bundles over F_2 (one or two points) and F_3 (one point),
    with twisted splitting types and partial flags, and two rank-4 bundles
    over F_2."""
    rng = random.Random(6)
    types = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, -1), (0, 0, -1))
    jumps = ((1, 1, 1), (1, 2), (2, 1), (1, 0, 2))
    cases = []
    for _ in range(16):
        F = rng.choice((F2, F3))
        npts = rng.choice((1, 2)) if F is F2 else 1
        cases.append(random_bundle(rng, F, rng.choice(types), npts, rng.choice(jumps)))
    cases.append(random_bundle(rng, F2, (1, 0, 0, -1), 1, (1, 1, 1, 1)))
    cases.append(random_bundle(rng, F2, (0, 0, 0, -1), 1, (1, 1, 2)))
    return cases


@pytest.mark.parametrize("V", polygon_cases())
def test_filtration_passes_polygon_certificate(V):
    assert polygon_certificate(V, hn_filtration(V)) > 0


def test_quotient_by_first_step_continues_the_datum():
    # V/U_1 carries the rest of V's HN filtration, so its datum is V's
    # without the first step's entries, and U_1 itself is semistable
    checked = 0
    for V in polygon_cases():
        filt = hn_filtration(V)
        if filt.length < 2:
            continue
        U1 = filt.steps[0]
        quotient = hn_filtration(quotient_parabolic(V, U1))
        assert hn_datum(quotient) == hn_datum(filt)[U1.rank:]
        assert hn_filtration(sub_parabolic(V, U1)).length == 1
        checked += 1
    assert checked == 17  # every unstable polygon case


def skew_window_degrees(monkeypatch, degree):
    """Make hn_filtration read degree(theta) as the D-scaled degree of each
    scanned subbundle with datum theta, or its true degree where that
    returns None."""
    true_degrees = hn._window_degrees

    def skewed(V, r, d, min_tw):
        subs = hn._enum(V.bundle, r, d, min_tw, budget=10**6)
        out = []
        for W, g in zip(subs, true_degrees(V, r, d, min_tw)):
            s = degree(induced_quot_datum(V, W))
            out.append(g if s is None else s)
        return out

    monkeypatch.setattr(hn, "_FILT_CACHE", {})
    monkeypatch.setattr(hn, "_window_degrees", skewed)


def test_tied_vertex_raises(monkeypatch):
    # every degree-0 line of one_point_aligned() gets the aligned line's 3/4,
    # as the hn scan sees it: D-scaled by D = 4 (weights 1/4, 3/4)
    V = one_point_aligned()
    assert V.scaled_weights[0] == 4
    skew_window_degrees(
        monkeypatch, lambda theta: 3 if (theta.rank, theta.degree) == (1, 0) else None
    )
    with pytest.raises(NonUniqueMaximum, match="parabolic degree 3/4"):
        hn_filtration(V)


def test_edge_point_outside_the_steps_raises(monkeypatch):
    # O^3 over F_2, one point, full flag, pardeg V = 3/2: the flag plane
    # gets 3/2 and the degree-0 lines outside it get 3/4 (both inside their
    # windows' bounds), so the lines sit on the edge from (0, 0) to the
    # plane's vertex (2, 3/2) without lying in the plane
    E = SplitBundle(F2, (0, 0, 0))
    flag = flag_make(F2, 3, (1, 1, 1), (((1, 0, 0),), ((1, 0, 0), (0, 1, 0))))
    V = ParabolicBundle(
        E, (0,), (flag,), ((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),)
    )
    assert V.scaled_weights[0] == 4  # the degrees below are D-scaled

    def skewed(theta):
        if theta.degree == 0 and theta.jumps == ((1, 1, 0),):
            return 6  # 3/2
        if theta.degree == 0 and theta.jumps == ((0, 0, 1),):
            return 3  # 3/4
        return -20  # -5

    skew_window_degrees(monkeypatch, skewed)
    with pytest.raises(NonUniqueMaximum, match="escapes"):
        hn_filtration(V)


# -- filtration and datum --------------------------------------------------------


def test_filtration_one_point_aligned():
    V = one_point_aligned()
    filt = hn_filtration(V)
    assert filt.length == 2
    assert filt.steps[0] == axis_e1(V.bundle)
    assert hn_datum(filt) == (Fraction(3, 4), Fraction(1, 4))


def test_filtration_two_point_cases():
    assert hn_datum(hn_filtration(two_point_aligned())) == (
        Fraction(3, 2),
        Fraction(1, 2),
    )
    filt = hn_filtration(two_point_generic())
    assert filt.length == 1
    assert hn_datum(filt) == (1, 1)


def test_rank_one_always_semistable():
    V = ParabolicBundle(SplitBundle(F3, (2,)), (), (), ())
    filt = hn_filtration(V)
    assert filt.length == 1
    assert hn_datum(filt) == (2,)


def test_classical_datum_of_split_bundle_is_sorted_twists():
    V = ParabolicBundle(SplitBundle(F3, (1, 0, -1)), (), (), ())
    assert hn_datum(hn_filtration(V)) == (1, 0, -1)


# -- scanned windows and the warm window memo -----------------------------------


QUARTERS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
FIFTHS = (Fraction(1, 5), Fraction(2, 5), Fraction(4, 5))
F2_FLAG = flag_make(F2, 3, (1, 1, 1), (((1, 0, 0),), ((1, 0, 0), (0, 1, 0))))
F2_FLAG_B = flag_make(F2, 3, (1, 1, 1), (((1, 0, 0),), ((1, 0, 0), (0, 0, 1))))


def window_cases():
    """(bundle, the (r, d, min_col_twist) of every window hn_filtration
    scans on it, in order, its HN datum)."""
    sixths = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    g = flag_make(F3, 3, (1, 1, 1), (((1, 1, 0),), ((1, 1, 0), (0, 1, 1))))
    h = flag_make(F3, 3, (1, 1, 1), (((0, 1, 2),), ((0, 1, 2), (1, 0, 1))))
    upper = flag_make(F2, 3, (2, 1), (((1, 0, 0), (0, 1, 1)),))
    lower = flag_make(F2, 3, (1, 2), (((1, 1, 1),),))
    return [
        pytest.param(  # a stratify-sweep flag pair: O^3 over F_2, two points
            ParabolicBundle(
                SplitBundle(F2, (0, 0, 0)), (0, 1), (F2_FLAG, F2_FLAG_B), (QUARTERS,) * 2
            ),
            [(1, 0, 0), (2, 0, 0), (2, -1, -1)],
            (Fraction(3, 2), Fraction(3, 4), Fraction(3, 4)),
            id="stratify-pair",
        ),
        pytest.param(  # no marked points: the windows reach ceil(height)
            ParabolicBundle(SplitBundle(F2, (1, 0, 0, -1)), (), (), ()),
            [(1, 1, 1), (2, 1, 0), (3, 1, -1)],
            (1, 0, 0, -1),
            id="no-points",
        ),
        pytest.param(  # D = 6, D-scaled pardeg 12: past the rank-1 vertex
            # at 7, the rank-2 height is 7 + 5/2 until the scan finds 11
            ParabolicBundle(SplitBundle(F3, (0, 0, -1)), (0, 2), (g, h), (sixths,) * 2),
            [(1, 0, 0), (2, 0, 0), (2, -1, -1), (2, -2, -2)],
            (Fraction(7, 6), Fraction(2, 3), Fraction(1, 6)),
            id="fractional-height",
        ),
        pytest.param(  # partial flags with jumps (2, 1) and (1, 2)
            ParabolicBundle(
                SplitBundle(F2, (1, 0, -1)),
                (0, 1),
                (upper, lower),
                ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 4), Fraction(1, 2))),
            ),
            [(1, 1, 1), (2, 1, 0), (2, 0, -1)],
            (Fraction(13, 6), Fraction(5, 6), Fraction(5, 12)),
            id="partial-flags",
        ),
    ]


@pytest.mark.parametrize("V, windows, datum", window_cases())
def test_scanned_windows(monkeypatch, V, windows, datum):
    calls = []
    enum = hn._enum

    def spy(E, r, d, min_tw, budget):
        calls.append((r, d, min_tw))
        return enum(E, r, d, min_tw, budget)

    monkeypatch.setattr(hn, "_ENUM_CACHE", {})
    monkeypatch.setattr(hn, "_FILT_CACHE", {})
    monkeypatch.setattr(hn, "_enum", spy)
    assert hn_datum(hn_filtration(V)) == datum
    assert calls == windows


def filtration_key(filt):
    return (tuple(W.sort_key() for W in filt.steps), filt.step_data, filt.slopes)


def test_warm_sweep_matches_cold_runs(monkeypatch):
    # the same Flag objects at both points, in both orders and alone at
    # either point, under two weight vectors, on O^3 and on O(1)+O+O (whose
    # degree-0 lines have different fibers at the two points), then the
    # one-point bundles over F_4, where the extended flags equal the F_2
    # ones: the window memo, keyed by (point, flag), is shared across the
    # sweep, and each warm result must also pass the polygon oracle
    A = F2_FLAG
    C = flag_make(F2, 3, (1, 1, 1), (((0, 1, 0),), ((0, 1, 0), (0, 0, 1))))
    sweep = []
    for twists in ((0, 0, 0), (1, 0, 0)):
        for lam in (QUARTERS, FIFTHS):
            for points, flags in (
                ((0, 1), (A, C)),
                ((0, 1), (C, A)),
                ((0, 1), (C, C)),
                ((0,), (C,)),
                ((1,), (C,)),
            ):
                sweep.append(
                    ParabolicBundle(
                        SplitBundle(F2, twists), points, flags, (lam,) * len(points)
                    )
                )
    sweep += [V.extend_scalars(2) for V in sweep[:10] if len(V.points) == 1]
    monkeypatch.setattr(hn, "_ENUM_CACHE", {})
    monkeypatch.setattr(hn, "_FILT_CACHE", {})
    warm = [hn_filtration(V) for V in sweep]
    for V, filt in zip(sweep, warm):
        assert polygon_certificate(V, filt) > 0
        monkeypatch.setattr(hn, "_ENUM_CACHE", {})
        monkeypatch.setattr(hn, "_FILT_CACHE", {})
        assert filtration_key(filt) == filtration_key(hn_filtration(V))


@pytest.mark.parametrize("warm_first", [False, True])
def test_budget_holds_on_cached_windows(monkeypatch, warm_first):
    monkeypatch.setattr(hn, "_ENUM_CACHE", {})
    E = SplitBundle(F3, (0, 0, 0))
    if warm_first:
        assert len(hn._enum(E, 2, 0, 0, budget=10**6)) == 13
    with pytest.raises(BudgetExceeded) as exc:
        hn._enum(E, 2, 0, 0, budget=1)
    assert (exc.value.count, exc.value.cap) == (169, 1)
    assert len(hn._enum(E, 2, 0, 0, budget=169)) == 13
    with pytest.raises(BudgetExceeded):
        hn._enum(E, 2, 0, 0, budget=168)


def test_semistability_fixtures():
    assert hn_filtration(one_point_aligned()).length != 1
    assert hn_filtration(two_point_generic()).length == 1
    assert hn_filtration(ParabolicBundle(SplitBundle(F3, (0,)), (), (), ())).length == 1


def test_rank_three_full_flag_three_step_chain():
    # E = O^3, one point, full flag, weights 1/4 < 1/2 < 3/4:
    #   aligned line:   slope 1 - 1/4 = 3/4
    #   aligned plane:  degree 2 - 3/4 = 5/4, relative slope over the line 1/2
    #   whole bundle:   degree 3 - 3/2 = 3/2, last step slope 1/4
    from parahn.parabolic import flag_make

    E = SplitBundle(F3, (0, 0, 0))
    flag = flag_make(F3, 3, (1, 1, 1), (((1, 0, 0),), ((1, 0, 0), (0, 1, 0))))
    V = ParabolicBundle(
        E, (0,), (flag,), ((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),)
    )
    filt = hn_filtration(V)
    assert [W.rank for W in filt.steps] == [1, 2, 3]
    assert hn_datum(filt) == (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))
    line = make_subbundle(E, (0,), (((1,),), ((),), ((),)))
    plane = make_subbundle(E, (0, 0), (((1,), ()), ((), (1,)), ((), ())))
    assert filt.steps[0] == line
    assert filt.steps[1] == plane
    # invariant under a scalar extension as well
    assert hn_datum(hn_filtration(V.extend_scalars(2))) == hn_datum(filt)


def test_extension_base_field_with_nontrivial_embedding():
    # base field F_4: marked point outside the prime field, flags through a
    # generator; extending to F_16 embeds along a root of the F_4 modulus
    F4 = field_make(2, 2)
    gen = 2  # the class of x, a generator of F_4 over F_2
    V = make_rank2(F4, (0, 0), (0, gen), ((1, 0), (1, gen)), ((1, 4), (3, 4)))
    filt = hn_filtration(V)
    datum = hn_datum(filt)
    assert sum(datum) == 2
    assert hn_datum(hn_filtration(V.extend_scalars(2))) == datum
    datum_oracle, line = rank2_oracle(V)
    assert datum == datum_oracle


# -- dominance order --------------------------------------------------------------


def test_hn_leq_examples():
    one = (Fraction(1), Fraction(1))
    special = (Fraction(3, 2), Fraction(1, 2))
    assert hn_leq(one, special)
    assert hn_leq(one, one)
    assert not hn_leq((Fraction(2), Fraction(0)), one)
    with pytest.raises(LengthMismatch):
        hn_leq(one, (Fraction(2),))


def test_hn_leq_is_partial_order_on_fixed_sum():
    rng = random.Random(31)
    pool = []
    for _ in range(60):
        a = Fraction(rng.randint(-4, 8), rng.randint(1, 4))
        b = Fraction(rng.randint(-8, 4), rng.randint(1, 4))
        hi, lo = max(a, b), min(a, b)
        pool.append((hi, lo, Fraction(2) - hi - lo))
    pool = [p for p in pool if p[1] >= p[2]]
    for P in pool:
        assert hn_leq(P, P)
    for P in pool:
        for Q in pool:
            if hn_leq(P, Q) and hn_leq(Q, P):
                assert P == Q
            for R in pool:
                if hn_leq(P, Q) and hn_leq(Q, R):
                    assert hn_leq(P, R)


# -- destabilizing witnesses -------------------------------------------------------


def test_find_witness_one_point():
    V = one_point_aligned()
    W = find_P_destabilizing(V, (Fraction(1, 2), Fraction(1, 2)))
    assert W == axis_e1(V.bundle)
    assert find_P_destabilizing(V, (Fraction(3, 4), Fraction(1, 4))) is None


def test_find_witness_semistable_none():
    V = two_point_generic()
    assert find_P_destabilizing(V, (Fraction(1), Fraction(1))) is None


def test_find_witness_requires_matching_total():
    with pytest.raises(NoComparableStratum):
        find_P_destabilizing(one_point_aligned(), (Fraction(1), Fraction(1)))


def test_strata_membership_fixtures():
    V = one_point_aligned()
    assert strata_member(V, (Fraction(3, 4), Fraction(1, 4)))
    assert not strata_member(V, (Fraction(1, 2), Fraction(1, 2)))
    assert strata_member(two_point_generic(), (Fraction(3, 2), Fraction(1, 2)))


# -- point counts ------------------------------------------------------------------


def test_quot_points_one_point_fixture():
    V = one_point_aligned()
    aligned = quot_points(V, QuotDatum(1, 0, ((1, 0),)))
    assert len(aligned) == 1
    unaligned = quot_points(V, QuotDatum(1, 0, ((0, 1),)))
    assert len(unaligned) == 3
    assert quot_points(V, QuotDatum(1, 1, ((1, 0),))) == ()


def test_quot_points_unaligned_count_matches_field_size():
    for q in (2, 3, 5):
        F = field_make(q, 1)
        V = make_rank2(F, (0, 0), (0,), ((1, 0),), ((1, 4), (3, 4)))
        assert len(quot_points(V, QuotDatum(1, 0, ((0, 1),)))) == q


def test_fil_points_of_own_filtration_is_unique():
    for V in (one_point_aligned(), two_point_aligned(), two_point_generic()):
        filt = hn_filtration(V)
        alpha = proper_step_data(filt)
        chains = fil_points(V, alpha)
        assert len(chains) == 1
        if alpha:
            assert chains[0] == filt.steps[:-1]


def test_fil_points_impossible_degree_empty():
    V = one_point_aligned()
    assert fil_points(V, (QuotDatum(1, 5, ((1, 0),)),)) == ()


def test_fil_points_nested_pairs_match_brute_force():
    # rank-3 bundle: chains of (line, plane) with fixed data versus a direct
    # product-and-filter over the two point sets
    F = F3
    E = SplitBundle(F, (0, 0, 0))
    from parahn.parabolic import flag_make

    flag = flag_make(F, 3, (1, 1, 1), (((1, 0, 0),), ((1, 0, 0), (0, 1, 0))))
    V = ParabolicBundle(
        E, (0,), (flag,), ((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),)
    )
    theta1 = QuotDatum(1, 0, ((1, 0, 0),))
    theta2 = QuotDatum(2, 0, ((1, 1, 0),))
    chains = fil_points(V, (theta1, theta2))
    lines = quot_points(V, theta1)
    planes = quot_points(V, theta2)
    brute = [
        (L, P) for L in lines for P in planes if P.contains(L)
    ]
    assert len(chains) == len(brute)
    assert set(chains) == set(brute)


def test_quot_and_fil_points_come_out_in_key_order():
    # neither sorts: the points keep enumerate_subbundles' key order, and
    # the chains are extended by them in that order
    flag = flag_make(F3, 3, (1, 1, 1), (((1, 0, 0),), ((1, 0, 0), (0, 1, 0))))
    V = ParabolicBundle(
        SplitBundle(F3, (0, 0, 0)), (0,), (flag,),
        ((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),),
    )
    alpha = (QuotDatum(1, 0, ((0, 0, 1),)), QuotDatum(2, 0, ((0, 1, 1),)))
    for theta in alpha:
        pts = quot_points(V, theta)
        assert len(pts) > 1
        assert list(pts) == sorted(pts, key=lambda W: W.sort_key())
    chains = fil_points(V, alpha)
    assert len(chains) > 1
    assert list(chains) == sorted(chains, key=lambda ch: tuple(W.sort_key() for W in ch))


# -- bound sets ---------------------------------------------------------------------


def test_enumerate_F_lattice_count():
    P = (Fraction(1), Fraction(1))
    got = enumerate_F(P, 2)
    # independent double loop over the half-integer lattice
    expected = set()
    for a2 in range(-6, 3):  # numerators of halves
        for b2 in range(-6, 3):
            a, b = Fraction(a2, 2), Fraction(b2, 2)
            if a >= b and (a + b).denominator == 1:
                if Fraction(1) >= a and b >= Fraction(-3):
                    expected.add((a, b))
    assert set(got) == expected
    assert len(got) == 25


def test_enumerate_F_rank_three_sixths():
    P = (Fraction(1, 2), Fraction(0), Fraction(-1, 2))
    got = enumerate_F(P, 1)
    # independent triple loop over the lattice of sixths, between P_1 = 1/2
    # and sum(P) - 3*|I| - 2*P_1 = -4
    expected = []
    for a in range(-30, 10):
        for b in range(-30, 10):
            for c in range(-30, 10):
                t = (Fraction(a, 6), Fraction(b, 6), Fraction(c, 6))
                if P[0] >= t[0] >= t[1] >= t[2] >= -4 and (a + b + c) % 6 == 0:
                    expected.append(t)
    assert got == tuple(sorted(expected))
    assert len(got) == 680


def test_enumerate_F_rank_one_single_window():
    got = enumerate_F((Fraction(3, 4),), 1)
    assert got == ((Fraction(0),),)


def test_enumerate_F_contains_classical_data(suite):
    for V in suite[::11]:
        filt = hn_filtration(V)
        P = hn_datum(filt)
        classical = hn_datum(
            hn_filtration(ParabolicBundle(V.bundle, (), (), ()))
        )
        assert classical in enumerate_F(P, len(V.points))


def test_enumerate_B_fixture_membership():
    V = one_point_aligned()
    Q = (Fraction(3, 4), Fraction(1, 4))
    got = enumerate_B(Q, V.weights)
    assert Q in got
    assert (Fraction(1, 2), Fraction(1, 2)) in got


def test_enumerate_B_rank_one():
    V = ParabolicBundle(SplitBundle(F3, (0,)), (), (), ())
    Q = (Fraction(0),)
    assert enumerate_B(Q, V.weights) == ((Fraction(0),),)


def test_enumerate_B_mixed_denominators():
    # the last slot of each tuple is looked up, not scanned: this call took
    # seconds while the value list (one entry per lattice point) was scanned
    got = enumerate_B(
        (1, Fraction(-1, 2), Fraction(-1, 2)),
        ((Fraction(1, 5),), (Fraction(1, 4), Fraction(1, 2))),
    )
    assert len(got) == 5689
    assert all(sum(t) == 0 and t[0] >= t[1] >= t[2] for t in got)
    assert all(isinstance(v, Fraction) for t in got for v in t)


def test_enumerate_B_superset_on_fixtures(suite):
    for V in suite[::13]:
        Q = hn_datum(hn_filtration(V))
        assert Q in enumerate_B(Q, V.weights)


def test_sigma_candidates_fixture():
    got = sigma_candidates((Fraction(3, 4), Fraction(1, 4)), (2,))
    assert len(got) == 2
    for datum in got:
        assert len(datum) == 1
        theta = datum[0]
        assert theta.rank == 1 and theta.degree == 0
        assert theta.jumps in (((1, 0),), ((0, 1),))


def test_sigma_candidates_come_out_sorted():
    got = sigma_candidates((Fraction(1), Fraction(0), Fraction(-1)), (3, 2))
    assert len(got) == 1620
    key = lambda alpha: tuple((t.rank, t.degree, t.jumps) for t in alpha)
    assert got == tuple(sorted(got, key=key))


def test_sigma_candidates_constant_datum_empty():
    assert sigma_candidates((Fraction(1), Fraction(1)), (2,)) == ()


def test_sigma_contains_own_filtration_data(suite):
    for V in suite[::9]:
        filt = hn_filtration(V)
        P = hn_datum(filt)
        psi = proper_step_data(filt)
        cands = sigma_candidates(P, tuple(f.chain_length for f in V.flags))
        if len(set(P)) == 1:
            assert psi == () and cands == ()
        else:
            assert psi in cands


# -- oracle agreement ----------------------------------------------------------------


def test_greedy_matches_oracle_on_named_fixtures():
    for V in (one_point_aligned(), two_point_aligned(), two_point_generic()):
        datum, line = rank2_oracle(V)
        filt = hn_filtration(V)
        assert hn_datum(filt) == datum
        if line is None:
            assert filt.length == 1
        else:
            assert filt.steps[0] == line


def test_filtration_is_unique_valid_chain_among_sigma_candidates():
    # rebuild the canonical chain from the chain schemes alone: over all
    # candidate filtration data for the attained datum, exactly one enumerated
    # chain has strictly decreasing slopes, and it is the engine's
    from parahn.parabolic import parabolic_degree

    for V in (one_point_aligned(), two_point_aligned(), two_point_generic()):
        filt = hn_filtration(V)
        P = hn_datum(filt)
        if filt.length == 1:
            continue
        valid = []
        cands = sigma_candidates(P, tuple(f.chain_length for f in V.flags))
        for alpha in cands:
            for chain in fil_points(V, alpha):
                L = chain[0]
                s = parabolic_degree(V, L)
                if s > parabolic_degree(V) - s:
                    valid.append(chain)
        assert len(valid) == 1
        assert valid[0] == filt.steps[:-1]


# -- families ------------------------------------------------------------------------


def family_e1_plus_u_e2(extension_degree=1):
    E = SplitBundle(F3, (0, 0))
    return FlagFamily(
        bundle=E,
        points=(0, 1),
        jumps=((1, 1), (1, 1)),
        subspace_polys=(
            ((((1,), ()),),),  # at x=0: span of e1, constant in u
            ((((1,), (0, 1)),),),  # at x=1: span of e1 + u*e2
        ),
        weights=((Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 4), Fraction(3, 4))),
        extension_degree=extension_degree,
    )


def test_family_scan_over_f3():
    scan = family_scan(family_e1_plus_u_e2())
    got = dict(scan.values)
    assert got[0] == (Fraction(3, 2), Fraction(1, 2))
    assert got[1] == (1, 1) and got[2] == (1, 1)
    assert scan.minimum == (1, 1)
    assert scan.exceeding == (0,)
    assert hn_leq(scan.minimum, got[0])


def test_family_scan_over_f9():
    scan = family_scan(family_e1_plus_u_e2(extension_degree=2))
    got = dict(scan.values)
    assert got[0] == (Fraction(3, 2), Fraction(1, 2))
    for u, datum in scan.values:
        if u != 0:
            assert datum == (1, 1)
    assert scan.minimum == (1, 1)


def test_family_scan_reports_degenerate_points():
    from parahn.errors import DegenerateFlagAt
    from parahn.sheaves import SplitBundle

    E = SplitBundle(F3, (0, 0))
    fam = FlagFamily(
        bundle=E,
        points=(0,),
        jumps=((1, 1),),
        subspace_polys=(((((0, 1), ()),),),),  # span of u*e1: dies at u = 0
        weights=((Fraction(1, 4), Fraction(3, 4)),),
    )
    with pytest.raises(DegenerateFlagAt) as exc:
        family_scan(fam)
    assert exc.value.points == [0]


@pytest.mark.parametrize(
    "jumps, members",
    [((2, 1), ((((1,), ()),),)), ((1, 1), ((((1,), ()),), (((1,), ()),)))],
    ids=["jumps-sum", "member-count"],
)
def test_family_shape_checked_when_built(jumps, members):
    from parahn.errors import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        FlagFamily(
            bundle=SplitBundle(F3, (0, 0)),
            points=(0,),
            jumps=(jumps,),
            subspace_polys=(members,),
            weights=((Fraction(1, 4), Fraction(3, 4)),),
        )


def test_constant_family_is_constant():
    E = SplitBundle(F3, (0, 0))
    fam = FlagFamily(
        bundle=E,
        points=(0,),
        jumps=((1, 1),),
        subspace_polys=(((((1,), ()),),),),
        weights=((Fraction(1, 4), Fraction(3, 4)),),
    )
    scan = family_scan(fam)
    data = {d for _, d in scan.values}
    assert len(data) == 1
    assert scan.exceeding == ()


# -- scalar extension invariance -------------------------------------------------------


def test_hn_datum_invariant_under_extension_fixtures():
    for V in (one_point_aligned(), two_point_aligned(), two_point_generic()):
        base = hn_datum(hn_filtration(V))
        for m in (1, 2, 3):
            assert hn_datum(hn_filtration(V.extend_scalars(m))) == base


# -- split extensions -------------------------------------------------------------------


def test_split_extension_datum_decreases(suite):
    from parahn.parabolic import direct_sum, quotient_parabolic, sub_parabolic

    checked = 0
    for V in (one_point_aligned(), two_point_aligned()) + suite[::17]:
        filt = hn_filtration(V)
        if filt.length == 1:
            continue
        U = filt.steps[0]
        Q = quotient_parabolic(V, U)
        W1 = direct_sum(Q, sub_parabolic(V, U))
        assert hn_leq(hn_datum(hn_filtration(W1)), hn_datum(filt))
        checked += 1
    assert checked > 2


def test_hom_vanishes_between_semistable_slope_ordered_pairs(suite):
    from parahn.parabolic import hom_parabolic, parabolic_slope

    # single-point full flags are always unstable (the aligned line wins by
    # half the weight gap), so the semistable pool comes from two-point bundles
    semistable = [
        V
        for V in suite
        if len(V.points) == 2 and V.field.q == 3 and hn_filtration(V).length == 1
    ]
    assert semistable
    pairs = 0
    for A in semistable[::3]:
        for B in semistable[::3]:
            if parabolic_slope(A) > parabolic_slope(B):
                dim, _ = hom_parabolic(A, B)
                assert dim == 0
                pairs += 1
        if pairs > 40:
            break
    assert pairs > 0


# -- rigidity proxy ----------------------------------------------------------------------


def test_hom_from_step_to_quotient_vanishes():
    from parahn.parabolic import hom_parabolic, quotient_parabolic, sub_parabolic

    for V in (one_point_aligned(), two_point_aligned()):
        U = hn_filtration(V).steps[0]
        dim, _ = hom_parabolic(sub_parabolic(V, U), quotient_parabolic(V, U))
        assert dim == 0
