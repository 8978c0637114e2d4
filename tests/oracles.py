"""Independent checks used by the test suite.

The rank-2 oracle performs a direct exhaustive filtration search: it derives
its own degree window from the rank-1 degree sandwich, enumerates every line
subbundle inside it with reference_enumerate, and classifies the bundle
without touching the HN engine or the engine's enumerator.  At most one line
can beat the total slope (two would violate degree additivity), which the
oracle asserts rather than assumes.  It still shares with the engine the
parabolic degree (parahn.parabolic) and, through reference_enumerate,
Subbundle's canonical key, sheaves.poly_det and the poly kernels.

polygon_certificate checks a claimed HN filtration of any rank against the
polygon it defines, enumerating every window that can reach that polygon
with its own bounds and no hn code.  It does share engine code: the windows
come from sheaves.enumerate_subbundles (the enumerator the hn scan uses),
each subbundle's parabolic degree from parahn.parabolic, and the vertex
check compares subbundles by their canonical keys.

induced_jumps_reference recomputes the induced flag jumps of a subbundle
the direct way, one intersect_dim per flag member, without the engine's
flag-adapted coordinates.

reference_enumerate is the enumerator the engine had before prefix minors:
every candidate matrix in column-product order, validated by cofactor
minors, and one subbundle per canonical key, the last validated
presentation of each kept.  reference_validate is its validation test.
reference_minor_classes groups the same candidates by their cofactor minors
up to a constant, the classes the engine tests for saturation once each.

SMALL_FIELDS lists every field with q <= 27, prime and extension.  untabled()
builds a small field the way fields above 256 elements are built, without op
tables, so the kernels' element-method fallback can be checked against the
table path on the same inputs.
"""

import itertools
from fractions import Fraction

import parahn.gf as gf
from parahn.linalg import intersect_dim
from parahn.parabolic import parabolic_degree
from parahn.rat import ceil_frac, floor_frac
from parahn.poly import pdeg, pgcd, pnorm, pscale
from parahn.sheaves import Subbundle, enumerate_subbundles, poly_det


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
        lines.extend(reference_enumerate(E, 1, d, d))
    beating = [L for L in lines if parabolic_degree(V, L) > mu]
    assert len(beating) <= 1, "two lines beat the slope: additivity violated"
    if not beating:
        return (mu, mu), None
    L = beating[0]
    s = parabolic_degree(V, L)
    return (s, parabolic_degree(V) - s), L


def polygon_certificate(V, filt):
    """Assert that filt is the HN filtration of V; return the number of
    subbundles checked.

    The claimed polygon runs from (0, 0) through (rank U_j, h_j), where h_j
    adds up slope times rank step, to (n, pardeg V).  Asserted: its slopes
    strictly decrease, each step's parabolic degree is its vertex height, no
    subbundle lies above the polygon, and at each vertex rank below n only
    the step reaches it.  At rank r every window that can reach the height
    h(r) is enumerated: each marked point adds r - sum_m lambda_m b_m,
    strictly between 0 and r, to the sheaf degree d, so d > h(r) - r*|I|
    (d >= h(r) with no points); d is at most the sum of the r largest
    twists; a column twist is at most a_1, so every one is at least
    d - (r - 1) a_1.
    """
    E = V.bundle
    n = E.rank
    npts = len(V.points)
    verts = [(0, Fraction(0))]
    for U, s in zip(filt.steps, filt.slopes):
        r0, h0 = verts[-1]
        verts.append((U.rank, h0 + s * (U.rank - r0)))
        assert parabolic_degree(V, U) == verts[-1][1], "a step is off its vertex"
    assert verts[-1][0] == n, "the last step is not the whole bundle"
    assert all(a > b for a, b in zip(filt.slopes, filt.slopes[1:])), "not concave"
    step_at = {U.rank: U for U in filt.steps}
    checked = 0
    for r in range(1, n):
        (r0, h0), (r1, h1) = next(
            (a, b) for a, b in zip(verts, verts[1:]) if a[0] <= r <= b[0]
        )
        h = h0 + (h1 - h0) * Fraction(r - r0, r1 - r0)
        d_min = floor_frac(h - r * npts) + 1 if npts else ceil_frac(h)
        for d in range(sum(E.twists[:r]), d_min - 1, -1):
            for W in enumerate_subbundles(E, r, d, d - (r - 1) * E.twists[0]):
                deg = parabolic_degree(V, W)
                assert deg <= h, f"a rank-{r} subbundle lies above the polygon"
                if deg == h and r in step_at:
                    assert W == step_at[r], f"a second subbundle reaches vertex {r}"
                checked += 1
    return checked


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


def reference_minors(E, r, mat):
    """The r x r minors of mat by cofactor expansion, one per r-subset of
    rows in combinations order."""
    return [
        poly_det(E.field, [mat[j] for j in S])
        for S in itertools.combinations(range(E.rank), r)
    ]


def _full_degrees(E, col_twists):
    """Per r-subset S of rows, sum_{j in S} a_j - sum_k d_k."""
    return [
        sum(E.twists[j] for j in S) - sum(col_twists)
        for S in itertools.combinations(range(E.rank), len(col_twists))
    ]


def _minors_saturated(F, minors, full_degrees):
    g, lead_ok = (), False
    for minor, full in zip(minors, full_degrees):
        if minor:
            lead_ok |= pdeg(minor) == full
            g = pgcd(F, g, minor)
    return g == (1,) and lead_ok


def reference_validate(E, col_twists, mat):
    """Cofactor test: the r x r minors have unit gcd and one of them reaches
    its full degree sum_S a_j - sum_k d_k.  Assumes the degree bounds hold."""
    r = len(col_twists)
    return r == 0 or _minors_saturated(
        E.field, reference_minors(E, r, mat), _full_degrees(E, col_twists)
    )


def _reference_columns(E, d_k):
    """Nonzero columns of twist d_k, first nonzero coefficient 1, in the
    order of the coefficient vectors: leading zeros, the 1, then the rest
    counting up in base q."""
    slots = [(j, a - d_k + 1) for j, a in enumerate(E.twists) if a >= d_k]
    total = sum(s for _, s in slots)
    for lead in range(total):
        for rest in itertools.product(range(E.field.q), repeat=total - lead - 1):
            flat = (0,) * lead + (1,) + rest
            col, at = [()] * E.rank, 0
            for j, s in slots:
                col[j] = pnorm(flat[at:at + s])
                at += s
            yield tuple(col)


def reference_candidates(E, r, d, min_col_twist):
    """Every candidate (twist vector, matrix) of the window, in column-product
    order within each twist vector."""
    twists = range(E.twists[0], min_col_twist - 1, -1)
    for vec in itertools.product(twists, repeat=r):
        if sum(vec) != d or any(a < b for a, b in zip(vec, vec[1:])):
            continue
        lists = [list(_reference_columns(E, dk)) for dk in vec]
        for cols in itertools.product(*lists):
            yield vec, tuple(zip(*cols))


def reference_presentations(E, r, d, min_col_twist):
    """Every validated candidate (twist vector, matrix) of the window, in
    column-product order within each twist vector."""
    for vec, mat in reference_candidates(E, r, d, min_col_twist):
        if reference_validate(E, vec, mat):
            yield vec, mat


def reference_minor_classes(E, r, d, min_col_twist):
    """The window's candidates with nonzero minors, by class: (twist vector,
    cofactor minors scaled so the first nonzero minor is monic) -> the last
    validated presentation of the class in column-product order, or None if
    none of its candidates validates."""
    F = E.field
    classes, fulls = {}, {}
    for vec, mat in reference_candidates(E, r, d, min_col_twist):
        if vec not in fulls:
            fulls[vec] = _full_degrees(E, vec)
        minors = reference_minors(E, r, mat)
        lead = next((m for m in minors if m), None)
        if lead is None:
            continue
        inv = F.inv(lead[-1])
        key = (vec, tuple(pscale(F, m, inv) for m in minors))
        if _minors_saturated(F, minors, fulls[vec]):
            classes[key] = mat
        else:
            classes.setdefault(key, None)
    return classes


def reference_enumerate(E, r, d, min_col_twist):
    """The window's subbundles, sorted like enumerate_subbundles; each keeps
    the last validated presentation of its canonical key."""
    found = {}
    for vec, mat in reference_presentations(E, r, d, min_col_twist):
        W = Subbundle(E, vec, mat)
        found[(vec, W.key)] = W
    return sorted(found.values(), key=Subbundle.sort_key)


# every field with q <= 27: the primes, and F_4, F_8, F_9, F_16, F_25, F_27
SMALL_FIELDS = [
    (p, k)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for k in (1, 2, 3, 4)
    if p ** k <= 27
]


def untabled(p, k):
    """F_{p^k} built directly, bypassing field_make's cache, with no op tables.

    An extension field takes its prime field from field_make, which caches
    it; that prime field is made first, with its tables, so the cache never
    keeps an F_p built while _TABLE_MAX is 0."""
    gf.field_make(p, 1)
    saved = gf._TABLE_MAX
    gf._TABLE_MAX = 0
    try:
        return gf.GF(p, k)
    finally:
        gf._TABLE_MAX = saved
