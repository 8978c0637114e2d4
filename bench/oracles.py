"""Closed-form counts that share no code with parahn.

They check the enumeration windows the benchmark runs through the CLI:

* the number of degree-0, rank-r subbundles of the trivial bundle O^n over
  F_q is the Gaussian binomial [n r]_q;
* line subbundles of a split bundle follow from a Moebius relation over
  effective divisors.  With P(d) the number of nonzero maps O(d) -> E up to
  scalar and N(d) the number of line subbundles of degree d,
  P(d) = (q^{sum_j max(0, a_j - d + 1)} - 1) / (q - 1) and
  P(d) = sum_{k >= 0} (q^{k+1} - 1) / (q - 1) * N(d + k).
"""

from __future__ import annotations


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """[n r]_q: the number of r-dimensional subspaces of F_q^n."""
    if r < 0 or r > n:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _projective_count(q: int, dim: int) -> int:
    return (q**dim - 1) // (q - 1)


def line_subbundle_count(twists, q: int, d: int) -> int:
    """N(d): line subbundles of degree d in O(a_1) + ... + O(a_n) over F_q."""
    top = max(twists)
    counts = {}
    for deg in range(top, d - 1, -1):
        maps = _projective_count(q, sum(max(0, a - deg + 1) for a in twists))
        higher = sum(
            _projective_count(q, k + 1) * counts[deg + k]
            for k in range(1, top - deg + 1)
        )
        counts[deg] = maps - higher
    return counts[d]
