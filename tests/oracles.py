"""Independent checks used by the test suite.

The rank-2 oracle performs a direct exhaustive filtration search: it derives
its own degree window from the rank-1 degree sandwich, enumerates every line
subbundle inside it, and classifies the bundle without touching the greedy
engine.  At most one line can beat the total slope (two would violate degree
additivity), which the oracle asserts rather than assumes.

induced_jumps_reference recomputes the induced flag jumps of a subbundle
the direct way, one intersect_dim per flag member, without the engine's
flag-adapted coordinates.

SMALL_FIELDS lists every field with q <= 27, prime and extension.  untabled()
builds a small field the way fields above 256 elements are built, without op
tables, so the kernels' element-method fallback can be checked against the
table path on the same inputs.
"""

import parahn.gf as gf
from parahn.linalg import intersect_dim
from parahn.parabolic import parabolic_degree
from parahn.rat import floor_frac
from parahn.sheaves import enumerate_subbundles


def rank2_oracle(V):
    """Exhaustive HN search for a rank-2 bundle.

    Returns (datum, destabilizing line or None).
    """
    E = V.bundle
    assert E.rank == 2
    mu = parabolic_degree(V) / 2
    npts = len(V.points)
    d_min = floor_frac(mu - npts)
    lines = []
    for d in range(max(E.twists), d_min - 1, -1):
        lines.extend(enumerate_subbundles(E, 1, d, d))
    best = None
    best_slope = None
    for L in lines:
        s = parabolic_degree(V, L)
        if best_slope is None or s > best_slope:
            best, best_slope = L, s
    beating = [L for L in lines if parabolic_degree(V, L) > mu]
    assert len(beating) <= 1, "two lines beat the slope: additivity violated"
    if not beating:
        return (mu, mu), None
    L = beating[0]
    s = parabolic_degree(V, L)
    return (s, parabolic_degree(V) - s), L


def induced_jumps_reference(V, W):
    """Per point, the jumps of dim(W_x ∩ F_m) over the flag members F_m."""
    n = V.rank
    out = []
    for x, fl in zip(V.points, V.flags):
        fiber = W.fiber_matrix(x)
        w_rows = [[fiber[j][k] for j in range(n)] for k in range(W.rank)]
        dims = [0] + [
            intersect_dim(V.field, w_rows, fl.subspace(m, n))
            for m in range(1, fl.chain_length + 1)
        ]
        out.append(tuple(b - a for a, b in zip(dims, dims[1:])))
    return tuple(out)


# every field with q <= 27: the primes, and F_4, F_8, F_9, F_16, F_25, F_27
SMALL_FIELDS = [
    (p, k)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for k in (1, 2, 3, 4)
    if p ** k <= 27
]


def untabled(p, k):
    """F_{p^k} built directly, bypassing field_make's cache, with no op tables."""
    saved = gf._TABLE_MAX
    gf._TABLE_MAX = 0
    try:
        return gf.GF(p, k)
    finally:
        gf._TABLE_MAX = saved
