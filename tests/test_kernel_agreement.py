"""The table path of the linalg and poly kernels against the element-method
path: each kernel gives the same result on a tabled field and on the same
field built without tables (oracles.untabled).  So does the subbundle
enumerator, whose last column runs on the row primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahn.gf import field_make
from parahn.linalg import matmul, rref
from parahn.poly import pdivmod, peval, pgcd, pmul, pnorm, pscale, psub
from parahn.sheaves import SplitBundle, enumerate_subbundles

from oracles import SMALL_FIELDS, padd, pneg, pxgcd, untabled


@st.composite
def fields(draw):
    """(tabled, untabled) copies of one field with q <= 27."""
    p, k = draw(st.sampled_from(SMALL_FIELDS))
    return field_make(p, k), untabled(p, k)


def elements(F):
    return st.integers(0, F.q - 1)


def rows(F, n):
    return st.lists(elements(F), min_size=n, max_size=n)


@settings(max_examples=150, deadline=None)
@given(fields(), st.data())
def test_rref_same_on_tabled_and_untabled_field(FU, data):
    F, U = FU
    m = data.draw(st.integers(1, 6))
    mat = data.draw(st.lists(rows(F, m), min_size=1, max_size=5))
    assert rref(F, mat) == rref(U, mat)


@settings(max_examples=100, deadline=None)
@given(fields(), st.data())
def test_matmul_same_on_tabled_and_untabled_field(FU, data):
    F, U = FU
    m = data.draw(st.integers(1, 6))
    a = data.draw(st.lists(rows(F, m), min_size=1, max_size=5))
    b = data.draw(st.lists(rows(F, 3), min_size=m, max_size=m))
    assert matmul(F, a, b) == matmul(U, a, b)


@settings(max_examples=200, deadline=None)
@given(fields(), st.data())
def test_poly_kernels_same_on_tabled_and_untabled_field(FU, data):
    F, U = FU
    a, b = (pnorm(data.draw(st.lists(elements(F), max_size=7))) for _ in range(2))
    x = data.draw(elements(F))
    for f in (pmul, padd, psub, pgcd, pxgcd):
        assert f(F, a, b) == f(U, a, b)
    assert pneg(F, a) == pneg(U, a)
    assert pscale(F, a, x) == pscale(U, a, x)
    assert peval(F, a, x) == peval(U, a, x)
    if b:
        assert pdivmod(F, a, b) == pdivmod(U, a, b)


# (p, k, twists, r, d): rank-2 windows over F_3 and F_4, a rank-3 one over F_2
ENUM_WINDOWS = [(3, 1, (0, 0, 0), 2, -1), (2, 2, (1, 0, -1), 2, 0), (2, 1, (0, 0, 0, 0), 3, 0)]


@pytest.mark.parametrize("p,k,twists,r,d", ENUM_WINDOWS)
def test_enumeration_same_on_tabled_and_untabled_field(p, k, twists, r, d):
    # the last column's minors are updated by row_addmul and keyed by
    # row_scale: without tables both take their element-method branch
    min_col_twist = d - (r - 1) * twists[0]
    F, U = field_make(p, k), untabled(p, k)
    got = [enumerate_subbundles(SplitBundle(G, twists), r, d, min_col_twist) for G in (F, U)]
    assert got[0]
    assert [(W.col_twists, W.mat) for W in got[0]] == [(W.col_twists, W.mat) for W in got[1]]
