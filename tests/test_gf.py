import random

import pytest

from parahn.errors import InvalidDegree, NotPrime
from parahn.gf import GF, field_make, is_prime

from oracles import SMALL_FIELDS, untabled


def test_prime_field_has_no_modulus():
    F = field_make(3, 1)
    assert F.p == 3 and F.k == 1 and F.q == 3
    assert F.modulus is None


def test_f4_modulus_is_the_unique_irreducible_quadratic():
    F = field_make(2, 2)
    assert F.modulus == (1, 1, 1)  # x^2 + x + 1, low-to-high


# the modulus of every extension field with q <= 1024, as serialized data
# carries it: the monic irreducible whose lower coefficients c_0, ..., c_{k-1}
# have the smallest code c_0 + c_1 p + ... (so x^3 + x + 1 for F_8)
PINNED_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (11, 2): (1, 0, 1),
    (13, 2): (2, 0, 1),
    (17, 2): (3, 0, 1),
    (19, 2): (1, 0, 1),
    (23, 2): (1, 0, 1),
    (29, 2): (2, 0, 1),
    (31, 2): (1, 0, 1),
}


def test_moduli_of_every_extension_field_up_to_1024_are_pinned():
    fields = [
        (p, k) for p in range(2, 32) if is_prime(p) for k in range(2, 11) if p ** k <= 1024
    ]
    assert sorted(fields) == sorted(PINNED_MODULI)
    for p, k in fields:  # untabled: the modulus without the table build
        assert untabled(p, k).modulus == PINNED_MODULI[p, k], (p, k)


def test_untabled_leaves_the_cached_prime_field_tabled():
    # no other test uses characteristic 251, so F_251 is first made here
    assert untabled(251, 2)._mul is None
    assert field_make(251, 1)._mul is not None


def test_composite_characteristic_rejected():
    with pytest.raises(NotPrime):
        field_make(4, 1)


def test_degree_must_be_positive():
    with pytest.raises(InvalidDegree):
        GF(3, 0)


def test_f9_modulus_is_lex_smallest():
    F = field_make(3, 2)
    assert F.modulus == (1, 0, 1)  # x^2 + 1 is irreducible over F_3


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_field_axioms_on_random_triples(p, k):
    F = field_make(p, k)
    rng = random.Random(1234 + p * 10 + k)
    for _ in range(200):
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1


def test_pow_matches_repeated_multiplication():
    F = field_make(3, 2)
    for a in range(F.q):
        acc = 1
        for e in range(1, 6):
            acc = F.mul(acc, a)
            assert F.pow(a, e) == acc


def test_extension_embeds_field_operations():
    F = field_make(3, 1)
    big, embed = F.extension(2)
    assert big.q == 9
    for a in range(3):
        for b in range(3):
            assert embed(F.add(a, b)) == big.add(embed(a), embed(b))
            assert embed(F.mul(a, b)) == big.mul(embed(a), embed(b))


def test_extension_of_extension_field():
    F = field_make(2, 2)
    big, embed = F.extension(2)
    assert big.q == 16
    seen = {embed(a) for a in range(F.q)}
    assert len(seen) == F.q
    for a in range(F.q):
        for b in range(F.q):
            assert embed(F.mul(a, b)) == big.mul(embed(a), embed(b))
            assert embed(F.add(a, b)) == big.add(embed(a), embed(b))


# -- tables and row primitives against the coefficient-vector definition -------

def _ref_tables(F):
    """add, neg, mul tables straight from coefficient vectors, sharing no code
    with the field's own tables."""
    p, k, q = F.p, F.k, F.q
    mod = F.modulus
    vecs = [F.coeffs(a) for a in range(q)]

    def mul(u, v):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(len(prod) - 1, k - 1, -1):  # reduce by the monic modulus
            c, prod[i] = prod[i], 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
        return F.encode(prod[:k])

    add = [[F.encode((x + y) % p for x, y in zip(u, v)) for v in vecs] for u in vecs]
    neg = [F.encode((-x) % p for x in u) for u in vecs]
    return add, neg, [[mul(u, v) for v in vecs] for u in vecs]


@pytest.mark.parametrize("tabled", [True, False], ids=["tabled", "untabled"])
@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_element_ops_match_coefficient_vectors(p, k, tabled):
    F = field_make(p, k) if tabled else untabled(p, k)
    assert (F._add is not None) == tabled
    add, neg, mul = _ref_tables(F)
    for a in range(F.q):
        assert F.neg(a) == neg[a]
        for b in range(F.q):
            assert F.add(a, b) == add[a][b]
            assert F.mul(a, b) == mul[a][b]
        if a:
            assert mul[a][F.inv(a)] == 1


@pytest.mark.parametrize("tabled", [True, False], ids=["tabled", "untabled"])
@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_row_primitives_match_coefficient_vectors(p, k, tabled):
    F = field_make(p, k) if tabled else untabled(p, k)
    add, neg, mul = _ref_tables(F)
    q = F.q
    # every (a, b) pair once, so each scalar c below covers all triples
    x = [a for a in range(q) for _ in range(q)]
    y = [b for _ in range(q) for b in range(q)]
    for c in range(q):
        cy = [mul[c][b] for b in y]
        assert F.row_scale(y, c) == cy
        assert F.row_addmul(x, c, y) == [add[a][b] for a, b in zip(x, cy)]
        powers = [1, c, mul[c][c], mul[c][mul[c][c]]]
        for a in range(q):
            row = (a, c, neg[a], 1)
            dot = 0
            for u, v in zip(row, powers):
                dot = add[dot][mul[u][v]]
            assert F.row_horner(row, c) == dot
    assert F.row_addmul(x, 1, y[:3]) == F.row_addmul(x[:3], 1, y[:3])  # rows are zipped
    assert F.row_horner((), 1) == 0


def test_prime_field_above_table_size_multiplies():
    F = field_make(257, 1)
    assert F._mul is None
    assert F.mul(200, 3) == 600 % 257
    assert F.mul(F.inv(5), 5) == 1
    assert F.row_scale([1, 2, 256], 2) == [2, 4, 255]
