"""The whole stratification against the Harder-Narasimhan recursion.

Fix the field, rank, degree, marked points, weights and flag types.  The
mass of an HN type tau is the sum of 1/|Aut E| over the splitting types E
and the flag tuples whose parabolic bundle has type tau; the HN recursion
says that an unstable type's mass is

    prod_i mass_ss(gr_i) * q^(-sum_{i<j} chi(gr_j, gr_i)),

with gr_1, gr_2, ... its graded pieces from the top slope down, mass_ss the
mass of the semistable type of a piece (1/(q - 1) for a line bundle) and
chi the Euler form.  The engine classifies every bundle; aut_order and
euler_form (tests/oracles.py) share no code with it.  Splitting types are
drawn from a twist range, so only the types whose mass does not change when
that range widens by one are compared.
"""

import itertools
from fractions import Fraction

import pytest

import parahn.hn as hn
from parahn.gf import field_make
from parahn.hn import hn_filtration
from parahn.linalg import rref
from parahn.parabolic import ParabolicBundle, flag_make
from parahn.sheaves import SplitBundle, nonincreasing_tuples

from oracles import aut_order, euler_form


def all_flags(F, n, jumps):
    """Every flag in F_q^n with the given jumps."""
    vectors = list(itertools.product(range(F.q), repeat=n))
    chains = [()]
    for b in jumps[:-1]:
        grown = set()
        for chain in chains:
            spaces = {chain[-1] if chain else ()}
            for _ in range(b):  # each member one dimension at a time
                larger = set()
                for rows in spaces:
                    for v in vectors:
                        red, rank, _ = rref(F, rows + (v,))
                        if rank > len(rows):
                            larger.add(tuple(red[:rank]))
                spaces = larger
            grown |= {chain + (rows,) for rows in spaces}
        chains = sorted(grown)
    return [flag_make(F, n, jumps, chain) for chain in chains]


def graded_type(filt):
    """The HN type: (rank, degree, jumps per point) of each graded piece."""
    out, prev = [], None
    for theta in filt.step_data:
        if prev is None:
            out.append((theta.rank, theta.degree, theta.jumps))
        else:
            out.append((
                theta.rank - prev.rank,
                theta.degree - prev.degree,
                tuple(tuple(a - b for a, b in zip(x, y))
                      for x, y in zip(theta.jumps, prev.jumps)),
            ))
        prev = theta
    return tuple(out)


def masses(F, n, d, points, weights, jumps, spread):
    """Mass per HN type over the splitting types of rank n and degree d
    with every twist within spread of d / n."""
    flags = [all_flags(F, n, b) for b in jumps]
    mid = d // n
    values = range(mid + spread, mid - spread - 1, -1)
    out = {}
    for twists in nonincreasing_tuples(values, n, d):
        E = SplitBundle(F, twists)
        share = Fraction(1, aut_order(F.q, twists))
        for fl in itertools.product(*flags):
            tau = graded_type(hn_filtration(ParabolicBundle(E, points, fl, weights)))
            out[tau] = out.get(tau, 0) + share
    return out


def recursion_mass(F, tau, semistable_mass):
    """prod_i mass_ss(gr_i) * q^(-sum_{i<j} chi(gr_j, gr_i))."""
    out = Fraction(1)
    for piece in tau:
        out *= semistable_mass(piece)
    k = sum(euler_form(tau[j], tau[i]) for i in range(len(tau)) for j in range(i + 1, len(tau)))
    return out * Fraction(F.q) ** -k


F2, F3 = field_make(2, 1), field_make(3, 1)
W2 = ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 3), Fraction(2, 3)))
W3 = ((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
      (Fraction(1, 5), Fraction(2, 5), Fraction(4, 5)))
# (field, rank, degree, weights, twist spread, unstable types compared): two
# marked points with full flags; rank 3 over F_2 with twists within 2 of the
# slope (3 when widened) runs in about 2 s in all
MASS_CASES = [(F, 2, d, W2, 3, 14 - 2 * d) for F in (F2, F3) for d in (0, 1)] + [
    (F2, 3, d, W3, 2, n) for d, n in ((0, 114), (1, 108), (2, 90))
]


@pytest.mark.parametrize("F,n,d,weights,spread,compared", MASS_CASES,
                         ids=[f"F{c[0].q}-r{c[1]}-d{c[2]}" for c in MASS_CASES])
def test_stratum_masses_follow_the_hn_recursion(monkeypatch, F, n, d, weights, spread, compared):
    monkeypatch.setattr(hn, "_ENUM_CACHE", {})
    monkeypatch.setattr(hn, "_FILT_CACHE", {})
    points = (0, 1)
    full = tuple(1 for _ in range(n))

    def stable_masses(r, deg, jumps):
        narrow = masses(F, r, deg, points, weights, jumps, spread)
        wide = masses(F, r, deg, points, weights, jumps, spread + 1)
        return {tau: m for tau, m in wide.items() if narrow.get(tau) == m}

    memo = {}

    def semistable_mass(piece):
        r, deg, jumps = piece
        if r == 1:
            return Fraction(1, F.q - 1)
        if piece not in memo:
            memo[piece] = stable_masses(r, deg, jumps).get((piece,))
        return memo[piece]

    checked = 0
    for tau, mass in stable_masses(n, d, (full, full)).items():
        if len(tau) == 1 or None in map(semistable_mass, tau):
            continue
        assert mass == recursion_mass(F, tau, semistable_mass), tau
        checked += 1
    assert checked == compared
