import random

import pytest

from parahn.gf import field_make
from parahn.poly import pdivmod, peval, pgcd, pmul, pnorm

from oracles import MINUS_INF, ladd, lcoeff, lfrom_poly, padd, pdeg, pxgcd


def test_gcd_with_common_factor_t():
    F3 = field_make(3, 1)
    a = (0, 2, 1)  # t^2 + 2t = t^2 - t over F_3
    b = (0, 1)
    assert pgcd(F3, a, b) == (0, 1)


def test_gcd_with_unit():
    F3 = field_make(3, 1)
    assert pgcd(F3, (0, 1), (1,)) == (1,)


def test_gcd_of_zeros_is_zero():
    F3 = field_make(3, 1)
    assert pgcd(F3, (), ()) == ()


def test_zero_degree_sentinel():
    assert pdeg(()) == MINUS_INF
    assert pdeg((5,)) == 0


def _rand_poly(rng, F, maxdeg):
    return pnorm(tuple(rng.randrange(F.q) for _ in range(rng.randint(0, maxdeg + 1))))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2)])
def test_gcd_divides_both_arguments(p, k):
    F = field_make(p, k)
    rng = random.Random(99 + p + k)
    for _ in range(100):
        a, b = _rand_poly(rng, F, 4), _rand_poly(rng, F, 4)
        g = pgcd(F, a, b)
        if not g:
            assert not a and not b
            continue
        assert g[-1] == 1  # monic
        for x in (a, b):
            if x:
                _, rem = pdivmod(F, x, g)
                assert rem == ()


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1)])
def test_bezout_witness(p, k):
    F = field_make(p, k)
    rng = random.Random(55 + p)
    for _ in range(100):
        a, b = _rand_poly(rng, F, 4), _rand_poly(rng, F, 4)
        g, s, t = pxgcd(F, a, b)
        assert g == pgcd(F, a, b)
        assert padd(F, pmul(F, s, a), pmul(F, t, b)) == g


def test_divmod_roundtrip():
    F = field_make(3, 1)
    rng = random.Random(7)
    for _ in range(200):
        a = _rand_poly(rng, F, 5)
        b = _rand_poly(rng, F, 3)
        if not b:
            continue
        q, r = pdivmod(F, a, b)
        assert padd(F, pmul(F, q, b), r) == a
        assert pdeg(r) < pdeg(b) or r == ()


def test_eval_horner():
    F = field_make(5, 1)
    p = (1, 2, 3)  # 1 + 2t + 3t^2
    for x in range(5):
        assert peval(F, p, x) == (1 + 2 * x + 3 * x * x) % 5


def test_laurent_roundtrip_and_coeffs():
    F = field_make(3, 1)
    assert lfrom_poly((0, 1, 2, 0)) == (1, (1, 2))  # t + 2t^2
    a = (-1, (1, 0, 2))  # t^-1 + 2t
    assert lcoeff(a, -1) == 1
    assert lcoeff(a, 0) == 0
    assert lcoeff(a, 1) == 2
    s = ladd(F, a, (0, (2,)))
    assert lcoeff(s, 0) == 2
