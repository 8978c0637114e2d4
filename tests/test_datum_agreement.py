"""induced_quot_datum (one rref per point in flag-adapted coordinates)
against oracles.induced_jumps_reference (one intersect_dim per flag member)
on random partial flags, zero jumps included, and random subbundles of every
rank, over every field with q <= 27 and one field built without op tables.
The jump memo each Flag keeps per (field, fiber rows) is checked against the
same reference on bundles that share Flag objects."""

import itertools
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parahn.gf import field_make
from parahn.linalg import rank, row_space_basis
from parahn.parabolic import ParabolicBundle, flag_make, induced_quot_datum
from parahn.sheaves import (
    SplitBundle,
    enumerate_subbundles,
    make_subbundle,
    subbundle_validate,
)

from conftest import F3
from oracles import SMALL_FIELDS, induced_jumps_reference, untabled

FIELDS = [field_make(p, k) for p, k in SMALL_FIELDS] + [untabled(3, 2)]


def vectors(F, n):
    return st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n)


@st.composite
def partial_flags(draw, F, n):
    """A flag with 1..n+1 members whose jumps may be zero."""
    length = draw(st.integers(1, n + 1))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=length - 1, max_size=length - 1)))
    jumps = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    basis = []
    for v in draw(st.lists(vectors(F, n), max_size=n)) + [
        [int(i == j) for j in range(n)] for i in range(n)
    ]:
        if rank(F, basis + [v]) > len(basis):
            basis.append(v)
    members = [basis[:f] for f in cuts]
    return flag_make(F, n, jumps, members)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_induced_jumps_match_intersection_reference(F, data):
    n = data.draw(st.integers(1, 4))
    r = data.draw(st.integers(1, n))
    npts = data.draw(st.integers(1, min(2, F.q)))
    points = tuple(data.draw(st.lists(st.integers(0, F.q - 1), min_size=npts,
                                      max_size=npts, unique=True)))
    flags = tuple(data.draw(partial_flags(F, n)) for _ in points)
    weights = tuple(
        tuple(Fraction(i + 1, fl.chain_length + 1) for i in range(fl.chain_length))
        for fl in flags
    )
    # columns of twist 0 in O(1)^n: entries a + b t, so fibers differ by point
    E = SplitBundle(F, (1,) * n)
    mat = data.draw(st.lists(
        st.lists(st.tuples(st.integers(0, F.q - 1), st.integers(0, F.q - 1)),
                 min_size=r, max_size=r),
        min_size=n, max_size=n,
    ))
    assume(subbundle_validate(E, (0,) * r, mat))
    W = make_subbundle(E, (0,) * r, mat)
    V = ParabolicBundle(E, points, flags, weights)
    assert induced_quot_datum(V, W).jumps == induced_jumps_reference(V, W)


# -- the per-flag jump memo ------------------------------------------------------


def full_flags_f2_3():
    """The 21 full flags of F_2^3, one (line, plane) pair each."""
    F = field_make(2, 1)
    vecs = [v for v in itertools.product((0, 1), repeat=3) if any(v)]
    flags = {}
    for v in vecs:
        for w in vecs:
            plane = row_space_basis(F, [v, w])
            if len(plane) == 2:
                flags.setdefault((v, plane), flag_make(F, 3, (1, 1, 1), ((v,), plane)))
    return list(flags.values())


def windows(E, ranks, degrees):
    return [W for r in ranks for d in degrees for W in enumerate_subbundles(E, r, d, d)]


def test_shared_flags_match_reference_on_every_pair():
    # all 441 two-point bundles on O^3 over F_2 share the 21 Flag objects and
    # the subbundle objects, as a stratification sweep does, so later pairs
    # read jumps that earlier pairs left in the flags' memos
    F = field_make(2, 1)
    E = SplitBundle(F, (0, 0, 0))
    flags = full_flags_f2_3()
    assert len(flags) == 21
    subs = windows(E, (1, 2), (0, -1))
    lam = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    # reference jumps per (flag, point), from one-point bundles
    ref = {
        (i, x): [
            induced_jumps_reference(ParabolicBundle(E, (x,), (fl,), (lam,)), W)[0]
            for W in subs
        ]
        for i, fl in enumerate(flags)
        for x in (0, 1)
    }
    for i, j in itertools.product(range(21), repeat=2):
        V = ParabolicBundle(E, (0, 1), (flags[i], flags[j]), (lam, lam))
        got = [induced_quot_datum(V, W).jumps for W in subs]
        assert got == [(a, b) for a, b in zip(ref[i, 0], ref[j, 1])], (i, j)


def test_one_flag_object_across_fields():
    # one Flag object in bundles over F_3, F_9 and F_5: its memo is keyed by
    # field.  F_9 holds F_3 as the codes 0..2, so both must agree with the
    # reference; over F_5 the code 2 is no longer -1, so the fiber row
    # (2, 1, 0) lies in the flag line <(1, 2, 0)> over F_3 and outside the
    # flag plane <(1, 2, 0), (0, 0, 1)> over F_5
    flag = flag_make(F3, 3, (1, 1, 1), (((1, 2, 0),), ((1, 2, 0), (0, 0, 1))))
    lam = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for q, ranks in ((F3, (1, 2)), (field_make(3, 2), (1,)), (field_make(5, 1), (1, 2))):
        E = SplitBundle(q, (0, 0, 0))
        V = ParabolicBundle(E, (0,), (flag,), (lam,))
        for W in windows(E, ranks, (0,)):
            assert induced_quot_datum(V, W).jumps == induced_jumps_reference(V, W)
    def jumps_of_row_210(q):
        E = SplitBundle(q, (0, 0, 0))
        W = make_subbundle(E, (0,), (((2,),), ((1,),), ((),)))
        return induced_quot_datum(ParabolicBundle(E, (0,), (flag,), (lam,)), W).jumps

    F5 = field_make(5, 1)
    assert [jumps_of_row_210(q) for q in (F3, F5, F3)] == [
        ((1, 0, 0),),
        ((0, 0, 1),),
        ((1, 0, 0),),
    ]
