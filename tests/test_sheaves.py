import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from parahn.errors import BudgetExceeded, DegreeBoundViolated, InvalidSubbundle, NotInjective
from parahn.gf import field_make
from parahn.poly import (
    pdivmod,
    pmul,
    pnorm,
    pscale,
    pshift,
)
from parahn.sheaves import (
    SplitBundle,
    Subbundle,
    enumerate_candidate_count,
    enumerate_subbundles,
    full_subbundle,
    make_subbundle,
    nonincreasing_tuples,
    quotient_bundle,
    saturate,
    section_twist,
    subbundle_validate,
    zero_subbundle,
    _minor_key,
)

import parahn.sheaves as sheaves

from conftest import add_row_multiple
from oracles import (
    TransitionBundle,
    birkhoff_factorize,
    laurent_matmul,
    lfrom_poly,
    lmonomial,
    padd,
    pdeg,
    poly_det,
    poly_mat_rank,
    poly_matmul,
    reference_enumerate,
    reference_minor_classes,
    reference_presentations,
    reference_quotient_twists,
    reference_validate,
    smith_form,
)

F2 = field_make(2, 1)
F3 = field_make(3, 1)
F4 = field_make(2, 2)
F5 = field_make(5, 1)


def bundle(field, *twists):
    return SplitBundle(field, twists)


# -- validation ---------------------------------------------------------------


def test_constant_full_rank_column_is_subbundle():
    E = bundle(F3, 0, 0)
    assert subbundle_validate(E, (0,), (((1,),), ((),)))


def test_column_with_common_zero_is_not_subbundle():
    E = bundle(F3, 0, 0)
    assert not subbundle_validate(E, (-1,), (((0, 1),), ((),)))


def test_coprime_column_with_infinity_check():
    E = bundle(F3, 0, 0)
    assert subbundle_validate(E, (-1,), (((0, 1),), ((1,),)))
    # constant column of twist -1 fails at infinity: minors never reach full degree
    assert not subbundle_validate(E, (-1,), (((1,),), ((1,),)))


# columns of twists (0, -1) in O^3: e_1 and a column of degree <= 1
RANK2_CASES = {
    "valid": ((1,), (0, 1), (1,)),
    "gcd-t": ((1,), (0, 1), ()),  # minors (t, 0, 0): common zero at t = 0
    "gcd-t+1": ((1,), (1, 1), ()),  # minors (t + 1, 0, 0): common zero at -1
    "lead-fails": ((1,), (1,), (1,)),  # unit gcd, no minor of degree 1
    "dependent": ((1,), (), ()),  # every minor vanishes
}


@pytest.mark.parametrize("name", RANK2_CASES)
def test_rank2_validation_cases_match_cofactor_oracle(name):
    E = bundle(F3, 0, 0, 0)
    col = RANK2_CASES[name]
    mat = (((1,), col[0]), ((), col[1]), ((), col[2]))
    assert subbundle_validate(E, (0, -1), mat) == reference_validate(E, (0, -1), mat)
    assert subbundle_validate(E, (0, -1), mat) == (name == "valid")


@pytest.mark.parametrize("field", [F2, F3, F4], ids=["F2", "F3", "F4"])
@pytest.mark.parametrize(
    "twists,col_twists",
    [((0, 0, 0), (0, -1)), ((1, 0, -1), (0, -1)), ((1, 0, -1), (1, 0, -1)),
     ((0, 0, 0, 0), (0, -1, -1)), ((0, 0, 0, 0), (-1, -1))],
)
def test_random_validation_matches_cofactor_oracle(field, twists, col_twists):
    rng = random.Random(f"{field.q} {twists} {col_twists}")
    E = bundle(field, *twists)
    verdicts = set()
    for _ in range(150):
        mat = tuple(
            tuple(
                pnorm(rng.randrange(field.q) for _ in range(max(0, a - dk + 1)))
                for dk in col_twists
            )
            for a in twists
        )
        ok = subbundle_validate(E, col_twists, mat)
        assert ok == reference_validate(E, col_twists, mat), mat
        verdicts.add(ok)
    assert verdicts == {True, False}


# -- canonical keys -------------------------------------------------------------


def test_key_of_coordinate_axis():
    E = bundle(F3, 0, 0)
    W = make_subbundle(E, (0,), (((1,),), ((),)))
    n0, rows = W.key
    assert n0 == 1
    # sections e_1 * {1, t} inside H^0(O(1))^2, echelonized
    assert rows == ((1, 0, 0, 0), (0, 1, 0, 0))


def test_key_dimension_matches_twisted_sections():
    E = bundle(F3, 0, 0)
    W = make_subbundle(E, (-1,), (((0, 1),), ((1,),)))
    n0, rows = W.key
    assert n0 == 1 + 0 - (-1)
    assert len(rows) == (-1) + n0 + 1  # h^0(O(-1 + N0))


def test_scalar_multiples_share_keys():
    E = bundle(F3, 0, 0)
    W1 = make_subbundle(E, (-1,), (((0, 1),), ((1,),)))
    W2 = make_subbundle(E, (-1,), (((0, 2),), ((2,),)))
    assert W1.key == W2.key and W1 == W2


# -- enumeration ----------------------------------------------------------------


def test_enumerate_lines_of_trivial_bundle_counts_projective_line():
    E = bundle(F3, 0, 0)
    subs = enumerate_subbundles(E, 1, 0, 0)
    assert len(subs) == 4  # |P^1(F_3)|


def test_enumerate_empty_above_degree_bound():
    E = bundle(F3, 0, 0)
    assert enumerate_subbundles(E, 1, 1, 0) == ()


def test_enumerate_full_rank_is_whole_bundle():
    E = bundle(F3, 0, 0)
    subs = enumerate_subbundles(E, 2, 0, 0)
    assert len(subs) == 1
    assert subs[0] == full_subbundle(E)


def test_enumerate_respects_budget():
    E = bundle(F3, 0, 0)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_subbundles(E, 1, -1, -1, budget=10)
    assert exc.value.count > 10


def test_degree_bound_grid():
    # no rank-r subbundle exceeds the sum of the r largest twists
    for twists in [(0, 0), (0, -1), (1, 0, -1)]:
        E = bundle(F3, *twists)
        for r in range(1, len(twists) + 1):
            top = sum(twists[:r])
            for d in range(top + 1, top + 3):
                assert enumerate_subbundles(E, r, d, d - (r - 1) * twists[0]) == ()


def test_enumerate_line_count_degree_minus_one():
    # lines of sheaf degree -1 in O^2: maps O(-1) -> O^2 mod scaling,
    # fiberwise injective everywhere; count them brute force over F_2
    E = bundle(F2, 0, 0)
    subs = enumerate_subbundles(E, 1, -1, -1)
    seen = set()
    for c in itertools.product(range(2), repeat=4):
        col = (pnorm(c[:2]), pnorm(c[2:]))
        if subbundle_validate(E, (-1,), ((col[0],), (col[1],))):
            W = make_subbundle(E, (-1,), ((col[0],), (col[1],)))
            seen.add((W.col_twists, W.key))
    assert len(subs) == len(seen)


def _window_grid():
    """O^3 and O(1)+O+O(-1) over F_2, F_3, F_4 and O^4 over F_2, ranks 1-3,
    from the top degree down while a window has at most 6,000 candidates."""
    grid = []
    shapes = [(F, tw) for F in (F2, F3, F4) for tw in ((0, 0, 0), (1, 0, -1))]
    for F, twists in shapes + [(F2, (0, 0, 0, 0))]:
        E = bundle(F, *twists)
        for r in (1, 2, 3):
            d = sum(twists[:r])
            while enumerate_candidate_count(E, r, d, d - (r - 1) * twists[0]) <= 6_000:
                grid.append((F.q, twists, r, d))
                d -= 1
    return grid


REFERENCE_WINDOWS = _window_grid()
FIELD_OF = {2: F2, 3: F3, 4: F4}


@pytest.mark.parametrize(
    "q,twists,r,d", REFERENCE_WINDOWS, ids=[str(w) for w in REFERENCE_WINDOWS]
)
def test_enumeration_matches_reference_enumerator(q, twists, r, d):
    # the same subbundles in the same order, each with the same presentation
    E = bundle(FIELD_OF[q], *twists)
    min_col_twist = d - (r - 1) * twists[0]
    got = enumerate_subbundles(E, r, d, min_col_twist)
    want = reference_enumerate(E, r, d, min_col_twist)
    assert [(W.col_twists, W.mat) for W in got] == [(W.col_twists, W.mat) for W in want]


def test_reference_grid_reaches_every_shape_and_negative_degrees():
    assert len(REFERENCE_WINDOWS) >= 40
    assert {(q, r) for q, tw, r, d in REFERENCE_WINDOWS if d < sum(tw[:r])} >= {
        (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)
    }


def _minor_key_of(E, col_twists, mat):
    """The enumerator's minor key of a presentation: its flattened maximal
    minors, scaled."""
    return _minor_key(E.field, Subbundle(E, col_twists, mat)._minors)


def _random_automorphism(rng, F, col_twists, mat):
    """mat times a random automorphism of O(d_1) + ... + O(d_r): a nonzero
    scaling of each column, then col_i += p(t) col_j with deg p <= d_j - d_i."""
    cols = [list(c) for c in zip(*mat)]
    r = len(cols)
    for i in range(r):
        u = rng.randrange(1, F.q)
        cols[i] = [pscale(F, e, u) for e in cols[i]]
    for _ in range(3):
        i, j = rng.sample(range(r), 2)
        gap = col_twists[j] - col_twists[i]
        if gap < 0:
            continue
        p = pnorm(rng.randrange(F.q) for _ in range(gap + 1))
        cols[i] = [padd(F, a, pmul(F, p, b)) for a, b in zip(cols[i], cols[j])]
    return tuple(zip(*cols))


AUTO_WINDOWS = [(F2, (0, 0, 0, 0), 2, -1), (F3, (1, 0, -1), 2, 0), (F3, (0, 0, 0), 2, -1),
                (F4, (1, 0, -1), 2, 0), (F3, (1, 0, -1), 2, -1), (F2, (0, 0, 0, 0), 3, 0)]
AUTO_IDS = [f"F{F.q}-{twists}-r{r}-d{d}" for F, twists, r, d in AUTO_WINDOWS]


@pytest.mark.parametrize("F,twists,r,d", AUTO_WINDOWS, ids=AUTO_IDS)
def test_minor_key_is_invariant_under_automorphisms(F, twists, r, d):
    rng = random.Random(r * 100 + d)
    E = bundle(F, *twists)
    for W in enumerate_subbundles(E, r, d, d - (r - 1) * twists[0])[:60]:
        key = _minor_key_of(E, W.col_twists, W.mat)
        for _ in range(4):
            mat = _random_automorphism(rng, F, W.col_twists, W.mat)
            assert subbundle_validate(E, W.col_twists, mat)
            assert _minor_key_of(E, W.col_twists, mat) == key
            assert make_subbundle(E, W.col_twists, mat).key == W.key


@pytest.mark.parametrize("F,twists,r,d", AUTO_WINDOWS[:4], ids=AUTO_IDS[:4])
def test_minor_keys_match_canonical_keys_over_a_window(F, twists, r, d):
    # every validated presentation of the window: equal minor keys exactly
    # when equal canonical keys
    E = bundle(F, *twists)
    pairs = {
        (vec, _minor_key_of(E, vec, mat), make_subbundle(E, vec, mat).key)
        for vec, mat in reference_presentations(E, r, d, d - (r - 1) * twists[0])
    }
    assert len({(v, m) for v, m, _ in pairs}) == len({(v, c) for v, _, c in pairs}) == len(pairs)


def _monic_first(F, minors):
    """minors scaled so the first nonzero one is monic."""
    inv = F.inv(next(m for m in minors if m)[-1])
    return tuple(pscale(F, m, inv) for m in minors)


# windows with their number of minor classes: the last column's candidates
# outnumber the classes 13 to 1 (O^3/F_3), 225 to 1 (O^4/F_2) and 35 to 1
CLASS_WINDOWS = [(F3, (0, 0, 0), 2, -1, 364), (F2, (0, 0, 0, 0), 3, -1, 255),
                 (F3, (1, 0, -1), 2, -1, 413)]


@pytest.mark.parametrize("F,twists,r,d,classes", CLASS_WINDOWS,
                         ids=[f"F{w[0].q}-{w[1]}-r{w[2]}-d{w[3]}" for w in CLASS_WINDOWS])
def test_saturation_runs_once_per_minor_class(monkeypatch, F, twists, r, d, classes):
    # proportional minors share one verdict: _saturated sees each class of
    # candidates once, and the window keeps the last validated presentation
    # of each saturated class, as an exhaustive cofactor pass finds them
    E = bundle(F, *twists)
    min_col_twist = d - (r - 1) * twists[0]
    real, seen = sheaves._saturated, []

    def spy(*args):
        seen.append(_monic_first(F, args[1]))
        return real(*args)

    monkeypatch.setattr(sheaves, "_saturated", spy)
    got = enumerate_subbundles(E, r, d, min_col_twist)
    want = reference_minor_classes(E, r, d, min_col_twist)
    assert len(seen) == len(want) == classes
    assert sorted(seen) == sorted(minors for _, minors in want)
    kept = sorted((vec, mat) for (vec, _), mat in want.items() if mat is not None)
    assert sorted((W.col_twists, W.mat) for W in got) == kept


# -- closed-form counts -------------------------------------------------------


def _load_bench_oracles():
    """bench/oracles.py, loaded by its path: closed-form counts that share no
    code with parahn."""
    path = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COUNTS = _load_bench_oracles()
COUNT_FIELDS = {2: F2, 3: F3, 4: field_make(2, 2), 5: F5}
MAX_CANDIDATES = 6_000  # keeps the windows below to about 2 s in all


def _small(E, r, d, min_col_twist):
    return enumerate_candidate_count(E, r, d, min_col_twist) <= MAX_CANDIDATES


GRASSMANNIAN_WINDOWS = [
    (q, n, r)
    for q, F in COUNT_FIELDS.items()
    for n in range(1, 5)
    for r in range(1, n + 1)
    if _small(bundle(F, *(0,) * n), r, 0, 0)
]
LINE_WINDOWS = [
    (q, twists, d)
    for q, F in COUNT_FIELDS.items()
    for twists in ((0, 0, 0), (1, 0, -1), (1, 0))
    for d in range(max(twists), -3, -1)
    if _small(bundle(F, *twists), 1, d, d)
]


@pytest.mark.parametrize("q,n,r", GRASSMANNIAN_WINDOWS)
def test_degree_zero_window_of_trivial_bundle_counts_grassmannian(q, n, r):
    # a degree-0 subbundle of O^n is a constant subspace of F_q^n
    E = bundle(COUNT_FIELDS[q], *(0,) * n)
    assert len(enumerate_subbundles(E, r, 0, 0)) == COUNTS.gaussian_binomial(n, r, q)


@pytest.mark.parametrize("q,twists,d", LINE_WINDOWS, ids=[str(w) for w in LINE_WINDOWS])
def test_line_window_matches_moebius_count(q, twists, d):
    E = bundle(COUNT_FIELDS[q], *twists)
    assert len(enumerate_subbundles(E, 1, d, d)) == COUNTS.line_subbundle_count(twists, q, d)


def test_count_windows_reach_rank_two_and_negative_degrees():
    assert {q for q, _, r in GRASSMANNIAN_WINDOWS if r >= 2} == set(COUNT_FIELDS)
    assert {q for q, _, d in LINE_WINDOWS if d == -1} == set(COUNT_FIELDS)
    assert {q for q, _, d in LINE_WINDOWS if d == -2} == {2, 3, 4}


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0],
        range(2, -3, -1),
        [5, 1, -1, -4],
        [Fraction(3, 2), Fraction(1, 3), Fraction(-1, 2), Fraction(-2)],
    ],
    ids=["empty", "zero", "range", "ints", "fractions"],
)
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_nonincreasing_tuples_match_brute_force(values, k):
    tuples = list(itertools.product(values, repeat=k))
    totals = {sum(t) for t in tuples} | {-20, 20}
    for total in totals:
        expected = [
            t
            for t in tuples
            if sum(t) == total and all(a >= b for a, b in zip(t, t[1:]))
        ]
        assert nonincreasing_tuples(values, k, total) == expected


# -- containment ----------------------------------------------------------------


def test_containment_of_axis_in_full():
    E = bundle(F3, 0, 0)
    axis = make_subbundle(E, (0,), (((1,),), ((),)))
    assert full_subbundle(E).contains(axis)
    assert not axis.contains(full_subbundle(E))
    assert axis.contains(zero_subbundle(E))


def test_contains_rejects_an_entry_above_its_degree_bound():
    # a presentation built directly, unvalidated: its entry t in row 1 of
    # O(0) + O(-1), twist 0, lies above the bound -1 there
    E = bundle(F3, 0, -1)
    axis = make_subbundle(E, (0,), (((1,),), ((),)))
    bad = Subbundle(E, (0,), (((1,),), ((0, 1),)))
    with pytest.raises(DegreeBoundViolated):
        axis.contains(bad)
    with pytest.raises(DegreeBoundViolated):
        bad.contains(axis)


# (bundle, lowest degree below the top of each rank's window); the window
# one below the top of O^3 over F_3 and O^4 over F_2 holds 624 and 1,050
# subbundles, too many to pair with each other here
CONTAINMENT_WINDOWS = [
    ((F2, (0, 0, 0)), 1),
    ((F3, (0, 0, 0)), 0),
    ((F3, (1, 0, -1)), 1),
    ((F2, (0, 0, 0, 0)), 0),
]


@pytest.mark.parametrize(
    "shape, depth", CONTAINMENT_WINDOWS,
    ids=[f"F{F.q}-{twists}" for (F, twists), _ in CONTAINMENT_WINDOWS],
)
def test_contains_matches_rank_oracle(shape, depth):
    # every ordered pair of the zero and full subbundles and the subbundles
    # of each rank's top window (and those below it, down to depth): W
    # contains U exactly when [W | U] has rank W.rank over F_q(t)
    F, twists = shape
    E = SplitBundle(F, twists)
    subs = [zero_subbundle(E), full_subbundle(E)]
    for r in range(1, E.rank):
        for d in range(sum(twists[:r]), sum(twists[:r]) - depth - 1, -1):
            subs += enumerate_subbundles(E, r, d, d - (r - 1) * twists[0])
    held = 0
    for W in subs:
        for U in subs:
            joined = tuple(a + b for a, b in zip(W.mat, U.mat))
            expected = poly_mat_rank(F, joined) == W.rank
            assert W.contains(U) == expected, (W.col_twists, W.mat, U.col_twists, U.mat)
            held += expected
    # containment holds well beyond U == W, 0 and E
    assert held > 3 * len(subs)


# -- saturation -----------------------------------------------------------------


def test_saturate_divides_out_common_zero():
    E = bundle(F3, 0, 0)
    W = saturate(E, (-1,), (((0, 1),), ((),)))
    axis = make_subbundle(E, (0,), (((1,),), ((),)))
    assert W == axis and W.degree == 0


def test_saturate_fixes_valid_subbundle():
    E = bundle(F3, 0, 0)
    W = make_subbundle(E, (-1,), (((0, 1),), ((1,),)))
    assert saturate(E, W.col_twists, W.mat) == W


def test_saturate_removes_content_factor():
    E = bundle(F3, 0, 0)
    W = saturate(E, (-2,), (((0, 0, 1),), ((0, 1),)))
    expected = make_subbundle(E, (-1,), (((0, 1),), ((1,),)))
    assert W == expected and W.degree == -1


def test_saturate_requires_generic_injectivity():
    E = bundle(F3, 0, 0)
    with pytest.raises(NotInjective):
        saturate(E, (0,), (((),), ((),)))
    # (1, 0, 0) and (t, 0, 0): both nonzero, of rank 1 over F_q(t)
    E = bundle(F3, 0, 0, 0)
    with pytest.raises(NotInjective):
        saturate(E, (0, -1), (((1,), (0, 1)), ((), ()), ((), ())))


def _minor_solution_space(E, col_twists, mat, n0):
    """Independent oracle: sections v of E(n0) with all (r+1)-minors of [M|v] zero."""
    F = E.field
    n = E.rank
    r = len(col_twists)
    blocks = [max(0, a + n0 + 1) for a in E.twists]
    offs = [0]
    for b in blocks:
        offs.append(offs[-1] + b)
    nvars = offs[-1]
    # linear map: coefficient vector of v -> stacked coefficients of all minors
    rows = {}

    def add(eq_key, var, coeff_poly):
        for e, c in enumerate(coeff_poly):
            if c:
                rows.setdefault((eq_key, e), [0] * nvars)
                rows[(eq_key, e)][var] = F.add(rows[(eq_key, e)][var], c)

    for S in itertools.combinations(range(n), r + 1):
        for pos, j in enumerate(S):
            keep = [x for x in S if x != j]
            cof = poly_det(F, [[mat[a][b] for b in range(r)] for a in keep])
            sign = 1 if pos % 2 == 0 else -1
            for e in range(blocks[j]):
                coeff = pshift(cof, e)
                if sign < 0:
                    coeff = pscale(F, coeff, F.neg(1))
                add(S, offs[j] + e, coeff)
    # each accumulated row must vanish; here rows were built per t-power already
    mat_rows = [tuple(v) for v in rows.values()]
    from parahn.linalg import kernel_basis

    return kernel_basis(F, mat_rows, ncols=nvars)


def test_saturate_agrees_with_minor_vanishing_oracle():
    E = bundle(F3, 0, 0)
    cases = [
        ((-1,), (((0, 1),), ((),))),
        ((-2,), (((0, 0, 1),), ((0, 1),))),
        ((-1,), (((0, 1),), ((1,),))),
        ((-2,), (((0, 2, 1),), ((0, 1),))),
    ]
    cases = [(E, d, mat) for d, mat in cases]
    # seeded random content: a subbundle with one column multiplied by a
    # random polynomial f and its twist lowered by deg f plus 0 or 1 (the
    # extra unit vanishes at infinity); saturation must undo both
    rng = random.Random(41)
    for F, twists, r in ((F3, (0, 0), 1), (F2, (1, 0, -1), 1), (F3, (0, 0, 0), 2),
                         (F4, (0, 0, 0), 2)):
        E = SplitBundle(F, twists)
        d = sum(twists[:r]) - 1
        subs = enumerate_subbundles(E, r, d, d - (r - 1) * twists[0])
        for W in rng.sample(subs, min(6, len(subs))):
            f = pnorm([rng.randrange(F.q) for _ in range(rng.randint(0, 2))] + [1])
            k = rng.randrange(r)
            mat = tuple(
                tuple(pmul(F, f, e) if c == k else e for c, e in enumerate(row))
                for row in W.mat
            )
            col_twists = tuple(
                dk - (pdeg(f) + rng.randint(0, 1) if c == k else 0)
                for c, dk in enumerate(W.col_twists)
            )
            assert saturate(E, col_twists, mat) == W
            cases.append((E, col_twists, mat))
    for E, d, mat in cases:
        W = saturate(E, d, mat)
        n0 = section_twist(E, W.col_twists)
        sol = _minor_solution_space(E, d, mat, n0)
        expected_dim = sum(dk + n0 + 1 for dk in W.col_twists)
        assert len(sol) == expected_dim
        # the solution space is exactly the section space of the saturation
        from parahn.linalg import rref as _rref

        _, key_rows = W.key
        joined = tuple(key_rows) + tuple(sol)
        assert _rref(E.field, joined)[1] == len(key_rows)


def test_saturate_monotone_under_containment():
    E = bundle(F3, 0, 0)
    rng = random.Random(11)
    for _ in range(30):
        # a line inside a rank-2 subsheaf: saturation preserves containment
        c = [rng.randrange(3) for _ in range(4)]
        col = (pnorm(c[:2]), pnorm(c[2:]))
        if not any(col):
            continue
        f = pnorm((rng.randrange(3), rng.randrange(1, 3)))
        big_mat = ((col[0], (1,)), (col[1], (0, 1)))
        small_mat = ((pmul(F3, f, col[0]),), (pmul(F3, f, col[1]),))
        try:
            small = saturate(E, (min(-1, -pdeg(f) if f else 0) - 2,), small_mat)
            large = saturate(E, (-3, -3), big_mat)
        except NotInjective:
            continue
        assert large.contains(small)


# -- smith form -----------------------------------------------------------------


def _assert_smith(F, M):
    U, D, V = smith_form(F, M)
    n, r = len(M), len(M[0]) if M else 0
    # round trip
    prod = poly_matmul(F, poly_matmul(F, U, D), V)
    assert prod == tuple(tuple(pnorm(e) for e in row) for row in M)
    # diagonal, monic chain
    for i in range(n):
        for j in range(r):
            if i != j:
                assert D[i][j] == ()
    diag = [D[i][i] for i in range(min(n, r))]
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert pdivmod(F, b, a)[1] == ()
        elif not a:
            assert not b
    for e in diag:
        assert not e or e[-1] == 1
    # unit determinants
    assert pdeg(poly_det(F, U)) == 0
    assert pdeg(poly_det(F, V)) == 0 if r else True
    return U, D, V


def test_smith_already_diagonal():
    M = (((1,), ()), ((), (0, 1)))
    _, D, _ = _assert_smith(F3, M)
    assert D[0][0] == (1,) and D[1][1] == (0, 1)


def test_smith_upper_triangular_t():
    M = (((0, 1), (1,)), ((), (0, 1)))
    _, D, _ = _assert_smith(F3, M)
    assert D[0][0] == (1,)
    assert D[1][1] == (0, 0, 1)  # t^2


def test_smith_zero_matrix():
    M = (((),),)
    _, D, _ = _assert_smith(F3, M)
    assert D == (((),),)


def test_smith_random_roundtrips():
    rng = random.Random(17)
    for F in (F2, F3, F5):
        for _ in range(60):
            n = rng.randint(1, 3)
            r = rng.randint(1, 3)
            M = tuple(
                tuple(
                    pnorm(tuple(rng.randrange(F.q) for _ in range(rng.randint(0, 3))))
                    for _ in range(r)
                )
                for _ in range(n)
            )
            _assert_smith(F, M)


# -- birkhoff -------------------------------------------------------------------


def _laurent_from_twists(F, twists):
    m = len(twists)
    return tuple(
        tuple(lmonomial(1, twists[i]) if i == j else (0, ()) for j in range(m))
        for i in range(m)
    )


def _poly_to_laurent_mat(rows):
    return tuple(tuple(lfrom_poly(e) for e in row) for row in rows)


def _assert_birkhoff(F, T):
    twists, a_plus, a_minus = birkhoff_factorize(T)
    assert all(a >= b for a, b in zip(twists, twists[1:]))
    prod = laurent_matmul(
        F,
        laurent_matmul(F, _poly_to_laurent_mat(a_plus), _laurent_from_twists(F, twists)),
        a_minus,
    )
    assert prod == T.transition
    # plus factor polynomial with constant determinant
    assert pdeg(poly_det(F, a_plus)) == 0
    # minus factor supported in nonpositive powers
    for row in a_minus:
        for e in row:
            if e[1]:
                assert e[0] + len(e[1]) - 1 <= 0
    return twists


def test_birkhoff_diagonal():
    T = TransitionBundle(F3, 2, (((1, (1,)), (0, ())), ((0, ()), (0, (1,)))))
    assert _assert_birkhoff(F3, T) == (1, 0)


def test_birkhoff_constant_swap():
    T = TransitionBundle(F3, 2, (((0, ()), (0, (1,))), ((0, (1,)), (0, ()))))
    assert _assert_birkhoff(F3, T) == (0, 0)


def test_birkhoff_mixed_laurent_upper_triangle():
    # t on top of t^-1 with the unit in the upper corner: the t^-1 column can
    # only absorb the unit from the right, so the splitting stays (1, -1)
    T = TransitionBundle(
        F3, 2, (((1, (1,)), (0, (1,))), ((0, ()), (-1, (1,))))
    )
    assert _assert_birkhoff(F3, T) == (1, -1)


def test_birkhoff_mixed_laurent_lower_triangle():
    # the mirror image does split trivially, with nontrivial factors
    T = TransitionBundle(
        F3, 2, (((1, (1,)), (0, ())), ((0, (1,)), (-1, (1,))))
    )
    assert _assert_birkhoff(F3, T) == (0, 0)


def test_birkhoff_random_products():
    rng = random.Random(23)
    for F in (F2, F3):
        for _ in range(60):
            m = rng.randint(1, 3)
            rows = [[(0, ()) for _ in range(m)] for _ in range(m)]
            for i in range(m):
                rows[i][i] = lmonomial(1, rng.randint(-2, 2))
            for _ in range(rng.randint(0, 5)):
                i, j = rng.randrange(m), rng.randrange(m)
                if i == j:
                    continue
                c = rng.randrange(1, F.q)
                e = rng.randint(-2, 2)
                add_row_multiple(F, rows, i, j, c, e)
            T = TransitionBundle(F, m, tuple(tuple(r) for r in rows))
            _assert_birkhoff(F, T)


# -- quotients ------------------------------------------------------------------


def test_quotient_by_axis():
    E = bundle(F3, 0, 0)
    axis = make_subbundle(E, (0,), (((1,),), ((),)))
    Q, qmap = quotient_bundle(E, axis)
    assert Q.twists == (0,)
    # projection at a point kills the axis fiber and is onto
    P = qmap.at(0)
    assert len(P) == 1 and P[0][0] == 0 and P[0][1] != 0


def test_quotient_by_degree_minus_one_line():
    E = bundle(F3, 0, 0)
    W = make_subbundle(E, (-1,), (((0, 1),), ((1,),)))
    Q, qmap = quotient_bundle(E, W)
    assert Q.twists == (1,)
    # fiber projections stay full rank and kill W's fiber
    for x in range(3):
        P = qmap.at(x)
        fib = W.fiber_matrix(x)
        img = [
            sum(0 if P[0][j] == 0 or fib[j][0] == 0 else 1 for j in range(2))
        ]
        from parahn.linalg import matmul

        killed = matmul(F3, P, fib)
        assert killed == ((0,),)
        assert any(c != 0 for c in P[0])


def test_quotient_of_middle_axis():
    E = bundle(F3, 1, 0, -1)
    mid = make_subbundle(E, (0,), (((),), ((1,),), ((),)))
    Q, _ = quotient_bundle(E, mid)
    assert Q.twists == (1, -1)


def test_quotient_degree_additivity_random():
    E = bundle(F3, 0, 0)
    for d in (0, -1, -2):
        for W in enumerate_subbundles(E, 1, d, d):
            Q, _ = quotient_bundle(E, W)
            assert sum(Q.twists) == E.degree - W.degree


@pytest.mark.parametrize(
    "twists, col_twists, mat",
    [
        ((0, 0), (-1,), (((0, 1),), ((),))),  # (t, 0): torsion at t = 0
        ((0, 0), (-1,), (((1,),), ((),))),  # (1, 0): torsion at infinity
        # equal columns: the annihilator's first generator, (0, 0, 1) of
        # twist 5, has the degree of a subbundle's, so only the rank shows it
        ((0, 0, -5), (0, 0), (((1,), (1,)), ((), ()), ((), ()))),
    ],
    ids=["finite-torsion", "infinite-torsion", "dependent-columns"],
)
def test_quotient_rejects_non_subbundles(twists, col_twists, mat):
    E = bundle(F3, *twists)
    W = Subbundle(E, col_twists, mat)
    with pytest.raises(InvalidSubbundle):
        quotient_bundle(E, W)


# (bundle, lowest degree below the top of each rank's window)
QUOTIENT_WINDOWS = [
    ((F2, (0, 0, 0)), 1),
    ((F3, (0, 0, 0)), 1),
    ((F4, (0, 0, 0)), 0),
    ((F2, (1, 0, -1)), 1),
    ((F3, (1, 0, -1)), 1),
    ((F4, (1, 0, -1)), 1),
    ((F2, (0, 0, 0, 0)), 1),
]


@pytest.mark.parametrize(
    "shape, depth", QUOTIENT_WINDOWS,
    ids=[f"F{F.q}-{twists}" for (F, twists), _ in QUOTIENT_WINDOWS],
)
def test_quotient_twists_match_smith_birkhoff_oracle(shape, depth):
    # every subbundle of every rank-r window at the top degree (and one
    # below), all column twists: perp's quotient against the Smith and
    # Birkhoff quotient of tests/oracles.py; at each F_q point the
    # projection kills W's fiber and is onto
    from parahn.linalg import matmul, rank

    F, twists = shape
    E = SplitBundle(F, twists)
    for r in range(1, E.rank):
        for d in range(sum(twists[:r]), sum(twists[:r]) - depth - 1, -1):
            for W in enumerate_subbundles(E, r, d, d - (r - 1) * twists[0]):
                Q, qmap = quotient_bundle(E, W)
                assert Q.twists == reference_quotient_twists(E, W)
                for x in range(F.q):
                    P = qmap.at(x)
                    assert not any(map(any, matmul(F, P, W.fiber_matrix(x))))
                    assert rank(F, P) == E.rank - r


# -- scalar extension -----------------------------------------------------------


def test_extend_scalars_trivial():
    E = bundle(F3, 0, 0)
    W = make_subbundle(E, (-1,), (((0, 1),), ((1,),)))
    assert W.extend_scalars(1) == W


def test_extend_scalars_preserves_twists_and_key_rank():
    E = bundle(F3, 0, 0)
    W = make_subbundle(E, (-1,), (((0, 1),), ((1,),)))
    W9 = W.extend_scalars(2)
    assert W9.bundle.field.q == 9
    assert W9.bundle.twists == E.twists
    assert W9.col_twists == W.col_twists
    assert len(W9.key[1]) == len(W.key[1])
    assert subbundle_validate(W9.bundle, W9.col_twists, W9.mat)


def test_enumerated_subbundles_stay_valid_after_extension():
    E = bundle(F3, 0, 0)
    for W in enumerate_subbundles(E, 1, 0, 0):
        W2 = W.extend_scalars(2)
        assert subbundle_validate(W2.bundle, W2.col_twists, W2.mat)
