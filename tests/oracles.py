"""Independent checks used by the test suite.

The rank-2 oracle performs a direct exhaustive filtration search: it derives
its own degree window from the rank-1 degree sandwich, enumerates every line
subbundle inside it with reference_enumerate, and classifies the bundle
without touching the HN engine or the engine's enumerator.  At most one line
can beat the total slope (two would violate degree additivity), which the
oracle asserts rather than assumes.  It still shares with the engine the
parabolic degree (parahn.parabolic) and, through reference_enumerate,
Subbundle's canonical key and the poly kernels.

polygon_certificate checks a claimed HN filtration of any rank against the
polygon it defines, enumerating every window that can reach that polygon
with its own bounds and no hn code.  It does share engine code: the windows
come from sheaves.enumerate_subbundles (the enumerator the hn scan uses),
each subbundle's parabolic degree from parahn.parabolic, and the vertex
check compares subbundles by their canonical keys.

poly_mat_rank is the rank over F_q(t) by fraction-free elimination, the
containment test the engine had before Subbundle.contains read maximal
minors; W contains U exactly when [W | U] has rank W.rank.  It shares
with the engine only the poly kernels (pmul, psub).

pxgcd is the extended Euclidean algorithm, the Bezout cross-check of the
engine's pgcd; padd adds two polynomials, the sum the engine no longer
needs; pneg negates a polynomial for the cofactor signs below.
proper_step_data reads the filtration datum (the induced data of the proper
steps) off an HN filtration.  chi_pairing is the coroot pairing of the
weight character, the independent formula that theta.is_admissible's gap
inequalities are checked against.

induced_jumps_reference recomputes the induced flag jumps of a subbundle
the direct way, one intersect_dim per flag member, without the engine's
flag-adapted coordinates.

reference_enumerate is the enumerator the engine had before prefix minors:
every candidate matrix in column-product order, validated by cofactor
minors, and one subbundle per canonical key, the last validated
presentation of each kept.  reference_validate is its validation test.
reference_minor_classes groups the same candidates by their cofactor minors
up to a constant, the classes the engine tests for saturation once each.

reference_quotient_twists is the quotient algorithm the engine had before
perp: Smith normal forms (smith_form) on both charts, a Laurent transition
matrix for E/W, and its Birkhoff factorization (birkhoff_factorize).  It
shares with the engine only the poly kernels and linalg.kernel_basis, and
its Laurent arithmetic (lnorm ... lmonomial), cofactor determinants
(poly_det) and products (poly_matmul) live here too.  An impossible step
raises AssertionError.

aut_order and euler_form are the two closed forms of the stratum-mass
check: |Aut E| of a split bundle, and the Euler form chi(A, B) of two
parabolic types.  They share no code with the engine.

SMALL_FIELDS lists every field with q <= 27, prime and extension.  untabled()
builds a small field the way fields above 256 elements are built, without op
tables, so the kernels' element-method fallback can be checked against the
table path on the same inputs.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import parahn.gf as gf
from parahn.linalg import intersect_dim, kernel_basis
from parahn.parabolic import parabolic_degree
from parahn.errors import BadIndex
from parahn.poly import pdivmod, pgcd, pmul, pnorm, pscale, pshift, psub
from parahn.sheaves import Subbundle, enumerate_subbundles

MINUS_INF = float("-inf")


def pdeg(a):
    """Degree; the zero polynomial gets the -inf sentinel."""
    return len(a) - 1 if a else MINUS_INF


def rank2_oracle(V):
    """Exhaustive HN search for a rank-2 bundle.

    Returns (datum, destabilizing line or None).
    """
    E = V.bundle
    assert E.rank == 2
    mu = parabolic_degree(V) / 2
    npts = len(V.points)
    d_min = math.floor(mu - npts)
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
        d_min = math.floor(h - r * npts) + 1 if npts else math.ceil(h)
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
            intersect_dim(V.field, w_rows, fl.subspace(m))
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


def poly_mat_rank(F, rows):
    """Rank over F_q(t) of a polynomial matrix, by fraction-free elimination."""
    mat = [list(r) for r in rows]
    n = len(mat)
    m = len(mat[0]) if n else 0
    rk = 0
    row = 0
    for col in range(m):
        sel = None
        best = None
        for i in range(row, n):
            e = mat[i][col]
            if e and (best is None or len(e) < best):
                sel, best = i, len(e)
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        p = mat[row][col]
        for i in range(row + 1, n):
            e = mat[i][col]
            if e:
                mat[i] = [
                    psub(F, pmul(F, p, mat[i][j]), pmul(F, e, mat[row][j]))
                    for j in range(m)
                ]
        rk += 1
        row += 1
        if row == n:
            break
    return rk


def padd(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = F.row_addmul(a, 1, b)
    out.extend(a[len(b):])
    return pnorm(out)


def pneg(F, a):
    return tuple(F.row_scale(a, F.neg(1)))


def pxgcd(F, a, b):
    """Extended gcd: (g, s, t) with s*a + t*b = g, g monic or zero."""
    a, b = pnorm(a), pnorm(b)
    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = pdivmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(F, s0, pmul(F, q, s1))
        t0, t1 = t1, psub(F, t0, pmul(F, q, t1))
    if r0 and r0[-1] != 1:
        u = F.inv(r0[-1])
        r0, s0, t0 = pscale(F, r0, u), pscale(F, s0, u), pscale(F, t0, u)
    return r0, s0, t0


def proper_step_data(filt):
    """Induced data of the proper steps of an HN filtration (the full step
    carries no information): the filtration datum that fil_points takes."""
    return tuple(
        theta for W, theta in zip(filt.steps, filt.step_data) if W.rank < filt.bundle.rank
    )


def chi_pairing(n: int, jumps, weights, l: int, k: int) -> Fraction:
    """Coroot pairing of the weight character across blocks l and k."""
    N = len(jumps)
    if len(weights) != N:
        raise BadIndex("jumps and weights must have equal length")
    if not (1 <= l <= N and 1 <= k <= N and l != k):
        raise BadIndex(f"block pair ({l}, {k}) invalid for chain length {N}")
    lam = [Fraction(w) for w in weights]
    a = list(jumps)

    def half(idx):
        return 2 * n * lam[idx - 1] - 2 * sum(a[: idx - 1]) - a[idx - 1]

    return half(l) - half(k)


def aut_order(q: int, twists) -> int:
    """|Aut E| for E = O(a_1) + ... + O(a_n) over F_q: the Levi part
    prod_i |GL_{m_i}(F_q)|, m_i the multiplicities of the distinct twists,
    times the unipotent part q^(dim End E - sum_i m_i^2), where
    dim End E = sum_{i,j} max(0, a_i - a_j + 1)."""
    dim_end = sum(max(0, a - b + 1) for a in twists for b in twists)
    mults = [len(list(g)) for _, g in itertools.groupby(sorted(twists))]
    order = q ** (dim_end - sum(m * m for m in mults))
    for m in mults:
        for i in range(m):
            order *= q ** m - q ** i
    return order


def euler_form(A, B) -> int:
    """chi(A, B) = dim Hom(A, B) - dim Ext^1(A, B) for parabolic bundles of
    types A and B, each (rank, degree, jumps per point) in the QuotDatum
    convention: r_A r_B + r_A d_B - r_B d_A - sum_x sum_{m<m'} b^A_m b^B_m'."""
    (ra, da, ja), (rb, db, jb) = A, B
    flags = sum(
        a * b
        for x_a, x_b in zip(ja, jb)
        for m, a in enumerate(x_a)
        for b in x_b[m + 1:]
    )
    return ra * rb + ra * db - rb * da - flags


# -- the Smith + Birkhoff quotient ----------------------------------------------
#
# The quotient algorithm the engine had before perp: Smith normal forms on
# both charts, a Laurent transition matrix for E/W, and its Birkhoff
# factorization.  It shares with the engine only the poly kernels and
# linalg.kernel_basis, and checks perp's quotients.


def poly_det(F, rows):
    n = len(rows)
    if n == 0:
        return (1,)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return psub(
            F, pmul(F, rows[0][0], rows[1][1]), pmul(F, rows[0][1], rows[1][0])
        )
    acc = ()
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = pmul(F, rows[0][j], poly_det(F, minor))
        acc = padd(F, acc, term) if j % 2 == 0 else psub(F, acc, term)
    return acc


def poly_matmul(F, a, b):
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ()
            for l in range(k):
                if a[i][l] and b[l][j]:
                    acc = padd(F, acc, pmul(F, a[i][l], b[l][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def poly_mat_inv_unimodular(F, rows):
    """Inverse of a square polynomial matrix with constant nonzero determinant."""
    n = len(rows)
    det = poly_det(F, rows)
    assert pdeg(det) == 0, "matrix determinant is not a nonzero constant"
    det_inv = F.inv(det[0])
    out = [[() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[a][b] for b in range(n) if b != i]
                for a in range(n)
                if a != j
            ]
            cof = poly_det(F, minor)
            if (i + j) % 2 == 1:
                cof = pneg(F, cof)
            out[i][j] = pscale(F, cof, det_inv)
    return tuple(tuple(r) for r in out)


def smith_form(F, M):
    """Smith normal form over F_q[t]: M = U * D * V, monic divisibility chain."""
    n = len(M)
    r = len(M[0]) if n else 0
    D = [[pnorm(e) for e in row] for row in M]
    U = [[(1,) if i == j else () for j in range(n)] for i in range(n)]
    V = [[(1,) if i == j else () for j in range(r)] for i in range(r)]

    def row_sub(i, s, q):  # row_i -= q*row_s ; U col_s += q*col_i
        D[i] = [psub(F, D[i][j], pmul(F, q, D[s][j])) for j in range(r)]
        for a in range(n):
            U[a][s] = padd(F, U[a][s], pmul(F, q, U[a][i]))

    def col_sub(j, s, q):  # col_j -= q*col_s ; V row_s += q*row_j
        for a in range(n):
            D[a][j] = psub(F, D[a][j], pmul(F, q, D[a][s]))
        V[s] = [padd(F, V[s][b], pmul(F, q, V[j][b])) for b in range(r)]

    def col_add(j, s):  # col_j += col_s ; V row_s -= row_j
        for a in range(n):
            D[a][j] = padd(F, D[a][j], D[a][s])
        V[s] = [psub(F, V[s][b], V[j][b]) for b in range(r)]

    def row_swap(i1, i2):
        D[i1], D[i2] = D[i2], D[i1]
        for a in range(n):
            U[a][i1], U[a][i2] = U[a][i2], U[a][i1]

    def col_swap(j1, j2):
        for a in range(n):
            D[a][j1], D[a][j2] = D[a][j2], D[a][j1]
        V[j1], V[j2] = V[j2], V[j1]

    def row_scale(i, u):  # row_i *= u ; U col_i *= u^-1
        D[i] = [pscale(F, e, u) for e in D[i]]
        ui = F.inv(u)
        for a in range(n):
            U[a][i] = pscale(F, U[a][i], ui)

    def reduce_from(s0):
        s = s0
        while s < min(n, r):
            sel = None
            best = None
            for i in range(s, n):
                for j in range(s, r):
                    e = D[i][j]
                    if e and (best is None or len(e) < best):
                        sel, best = (i, j), len(e)
            if sel is None:
                return
            if sel[0] != s:
                row_swap(s, sel[0])
            if sel[1] != s:
                col_swap(s, sel[1])
            while True:
                dirty = False
                for i in range(s + 1, n):
                    if D[i][s]:
                        q, rem = pdivmod(F, D[i][s], D[s][s])
                        row_sub(i, s, q)
                        if D[i][s]:
                            row_swap(s, i)
                            dirty = True
                for j in range(s + 1, r):
                    if D[s][j]:
                        q, rem = pdivmod(F, D[s][j], D[s][s])
                        col_sub(j, s, q)
                        if D[s][j]:
                            col_swap(s, j)
                            dirty = True
                if not dirty:
                    if all(not D[i][s] for i in range(s + 1, n)) and all(
                        not D[s][j] for j in range(s + 1, r)
                    ):
                        break
            s += 1

    reduce_from(0)
    # enforce the divisibility chain
    guard = 0
    while True:
        guard += 1
        assert guard <= 10000, "smith chain fix did not terminate"
        bad = None
        for i in range(min(n, r) - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if a and b:
                _, rem = pdivmod(F, b, a)
                if rem:
                    bad = i
                    break
            elif not a and b:
                bad = i
                break
        if bad is None:
            break
        col_add(bad, bad + 1)
        reduce_from(bad)
    for i in range(min(n, r)):
        e = D[i][i]
        if e and e[-1] != 1:
            row_scale(i, F.inv(e[-1]))
    return (
        tuple(tuple(row) for row in U),
        tuple(tuple(row) for row in D),
        tuple(tuple(row) for row in V),
    )


# Laurent polynomials: (valuation, coeffs) pairs, coeffs normalized like poly's.


def lnorm(lo, coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    while c and c[0] == 0:
        c.pop(0)
        lo += 1
    if not c:
        return (0, ())
    return (lo, tuple(c))


def lfrom_poly(a):
    return lnorm(0, a)


def lis_zero(a):
    return not a[1]


def lval(a):
    """t-adic valuation; +inf for zero."""
    return a[0] if a[1] else float("inf")


def ladd(F, a, b):
    if lis_zero(a):
        return b
    if lis_zero(b):
        return a
    lo = min(a[0], b[0])
    hi = max(a[0] + len(a[1]), b[0] + len(b[1]))
    out = [0] * (hi - lo)
    i = a[0] - lo
    out[i:i + len(a[1])] = a[1]
    i = b[0] - lo
    out[i:i + len(b[1])] = F.row_addmul(out[i:i + len(b[1])], 1, b[1])
    return lnorm(lo, out)


def lscale(F, a, c):
    if c == 0:
        return (0, ())
    return (a[0], tuple(F.row_scale(a[1], c)))


def lcoeff(a, n):
    """Coefficient of t^n."""
    lo, c = a
    if not c or n < lo or n >= lo + len(c):
        return 0
    return c[n - lo]


def lmonomial(c, n):
    return (n, (c,)) if c else (0, ())


@dataclass(frozen=True)
class TransitionBundle:
    """Bundle on the two-chart line, glued by an invertible Laurent matrix.

    Convention: the transition maps s-chart coordinates to t-chart
    coordinates, so diag(t^c) describes the split bundle with twists c.
    """

    field: object
    rank: int
    transition: tuple  # rank x rank matrix of Laurent polynomials

    def __post_init__(self):
        assert len(self.transition) == self.rank and all(
            len(row) == self.rank for row in self.transition
        ), "transition matrix shape mismatch"


def _laurent_split(rows):
    """(s, P) with rows = t^s * P: s is the least valuation of an entry (0 if
    every entry is zero) and P is a polynomial matrix."""
    s = min((e[0] for row in rows for e in row if e[1]), default=0)
    return s, [[pshift(e[1], e[0] - s) for e in row] for row in rows]


def laurent_det(F, rows):
    """det(t^s P) = t^(ns) det P, by poly_det's cofactor expansion."""
    s, P = _laurent_split(rows)
    return lnorm(len(rows) * s, poly_det(F, P))


def laurent_matmul(F, a, b):
    """(t^s P)(t^u Q) = t^(s+u) PQ, by poly_matmul."""
    s, P = _laurent_split(a)
    u, Q = _laurent_split(b)
    return tuple(tuple(lnorm(s + u, e) for e in row) for row in poly_matmul(F, P, Q))


def birkhoff_factorize(T):
    """Factor the transition as A_plus * diag(t^c) * A_minus.

    A_plus is invertible over F_q[t], A_minus over F_q[1/t], and the twists c
    come out nonincreasing; they are the splitting type of the glued bundle.
    """
    F = T.field
    m = T.rank
    det = laurent_det(F, T.transition)
    assert len(det[1]) == 1, "transition determinant is not a unit monomial"
    det_val = det[0]
    TW = [list(row) for row in T.transition]
    W_inv = [
        [lfrom_poly((1,)) if i == j else (0, ()) for j in range(m)] for i in range(m)
    ]
    while True:
        vals = []
        for j in range(m):
            v = min(lval(TW[i][j]) for i in range(m))
            vals.append(int(v))
        B = tuple(
            tuple(lcoeff(TW[i][j], vals[j]) for j in range(m)) for i in range(m)
        )
        ker = kernel_basis(F, B, ncols=m)
        if not ker:
            break
        kappa = ker[0]
        support = [j for j in range(m) if kappa[j] != 0]
        jstar = min(support, key=lambda j: (vals[j], j))
        # column j* <- sum_j kappa_j t^(v_j* - v_j) col_j   (exponents <= 0)
        newcol = [(0, ()) for _ in range(m)]
        for j in support:
            shift = vals[jstar] - vals[j]
            for i in range(m):
                if not lis_zero(TW[i][j]):
                    term = lscale(F, lnorm(TW[i][j][0] + shift, TW[i][j][1]), kappa[j])
                    newcol[i] = ladd(F, newcol[i], term)
        for i in range(m):
            TW[i][jstar] = newcol[i]
        # W_inv <- E^-1 * W_inv : row j* scales, other rows subtract
        inv_k = F.inv(kappa[jstar])
        old_jstar = W_inv[jstar]
        new_rows = {}
        for a in support:
            if a == jstar:
                continue
            shift = vals[jstar] - vals[a]
            coef = F.neg(F.mul(kappa[a], inv_k))
            new_rows[a] = [
                ladd(
                    F,
                    W_inv[a][b],
                    lscale(F, lnorm(old_jstar[b][0] + shift, old_jstar[b][1]), coef),
                )
                for b in range(m)
            ]
        W_inv[jstar] = [lscale(F, e, inv_k) for e in old_jstar]
        for a, row in new_rows.items():
            W_inv[a] = row
        new_sum = sum(
            int(min(lval(TW[i][j]) for i in range(m))) for j in range(m)
        )
        assert new_sum > sum(vals), "birkhoff reduction made no progress"
        assert new_sum <= det_val, "birkhoff valuations exceeded determinant"
    order = sorted(range(m), key=lambda j: (-vals[j], j))
    twists = tuple(vals[j] for j in order)
    a_plus = []
    for i in range(m):
        row = []
        for j in order:
            e = TW[i][j]
            if lis_zero(e):
                row.append(())
            else:
                lo = e[0] - vals[j]
                assert lo >= 0, "plus factor not polynomial"
                row.append(pnorm((0,) * lo + e[1]))
        a_plus.append(tuple(row))
    a_minus = tuple(tuple(W_inv[j]) for j in order)
    return twists, tuple(a_plus), a_minus


def _poly_to_schart(E, col_twists, mat):
    """Rewrite the presentation in the s = 1/t chart."""
    out = []
    for j in range(E.rank):
        row = []
        for k in range(len(col_twists)):
            bound = E.twists[j] - col_twists[k]
            e = mat[j][k]
            if bound < 0 or not e:
                row.append(())
            else:
                padded = list(e) + [0] * (bound + 1 - len(e))
                row.append(pnorm(tuple(reversed(padded))))
        out.append(tuple(row))
    return tuple(out)


def _schart_poly_to_laurent(p):
    """p(s) as a Laurent polynomial in t via s = 1/t."""
    if not p:
        return (0, ())
    return lnorm(-(len(p) - 1), tuple(reversed(p)))


def reference_quotient_twists(E, W):
    """The splitting type of E/W for a subbundle W of rank below E's: the
    rows r..n of the inverse Smith factor on the t-chart span the quotient
    there, the Smith factor on the s-chart glues it, and the Birkhoff
    factorization of the resulting transition gives its twists."""
    F = E.field
    n, r = E.rank, W.rank
    U, D, _ = smith_form(F, W.mat)
    assert all(pdeg(D[i][i]) == 0 for i in range(r)), "torsion on the t-chart"
    U_inv = poly_mat_inv_unimodular(F, U)
    Us, Ds, _ = smith_form(F, _poly_to_schart(E, W.col_twists, W.mat))
    assert all(pdeg(Ds[i][i]) == 0 for i in range(r)), "torsion at infinity"
    # transition of the quotient: rows/cols r..n of U^-1 * diag(t^a) * U_s(1/t)
    left = [[lfrom_poly(e) for e in row] for row in U_inv]
    mid = [
        [lmonomial(1, E.twists[i]) if i == j else (0, ()) for j in range(n)]
        for i in range(n)
    ]
    right = [[_schart_poly_to_laurent(e) for e in row] for row in Us]
    G = laurent_matmul(F, laurent_matmul(F, left, mid), right)
    G_sub = tuple(tuple(G[i][j] for j in range(r, n)) for i in range(r, n))
    twists, _, _ = birkhoff_factorize(TransitionBundle(F, n - r, G_sub))
    assert sum(twists) == E.degree - W.degree, "quotient degree additivity failed"
    return twists
