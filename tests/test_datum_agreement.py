"""induced_quot_datum (one rref per point in flag-adapted coordinates)
against oracles.induced_jumps_reference (one intersect_dim per flag member)
on random partial flags, zero jumps included, and random subbundles of every
rank, over every field with q <= 27 and one field built without op tables."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parahn.gf import field_make
from parahn.linalg import rank
from parahn.parabolic import ParabolicBundle, flag_make, induced_quot_datum
from parahn.sheaves import SplitBundle, make_subbundle, subbundle_validate

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
