"""Vector bundles and subbundles on the projective line over F_q.

A bundle is a direct sum of line bundles with nonincreasing twists; the two
standard affine charts carry coordinates t and s = 1/t, and a rank-r subbundle
is presented by an n x r polynomial matrix on the t-chart whose entry (j, k)
has degree at most a_j - d_k.  The presentation is a subbundle (rather than a
mere subsheaf) exactly when the r x r minors have unit gcd and some minor
attains its maximal homogeneous degree, i.e. the columns stay independent at
every point of the projective line over the algebraic closure.

The maximal minors are built one column at a time: the k x k minors of the
first k columns extend to the (k+1) x (k+1) minors by one Laplace expansion
along the next column, k+1 products per minor and no cofactor recursion.
subbundle_validate and the enumerator share that expansion and one
saturation test on its result.  The enumerator expands only its column
prefixes that way: once the prefix is fixed, the maximal minors are
F_q-linear in the last column's coefficients, so each last column updates
the flattened minors of the one before it by a row_addmul or two.

Every other question about a presentation's columns reads the same minors.
Subbundle.contains extends a subbundle's cached minors by each column of
the other and asks that every (r+1)-minor vanish; quotient_bundle
validates its input with subbundle_validate; saturate's injectivity test
asks that some maximal minor survive.

Identity of subbundles is identity of subsheaves: the canonical key is the
reduced echelon basis of a twisted section space, so presentations related by
column operations collapse to one object.  Within one vector of column
twists the enumerator tells subbundles apart by their flattened maximal
minors scaled so the first nonzero coefficient is 1, tests saturation once
per such key (proportional minors pass or fail together), and computes the
canonical key only for the subbundles it returns.

Quotients and saturation rest on one primitive, perp: the annihilator W^⊥
in the dual bundle, read level by level as the kernels of F_q-linear maps
on section spaces.  Its generators split W^⊥, so E/W = (W^⊥)^∨ has the
negated twists and the generators as fiber projections, and the saturation
of a presentation is perp of perp.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

from .errors import (
    BudgetExceeded,
    DegreeBoundViolated,
    FullRank,
    InvalidSubbundle,
    NotInjective,
    ShapeMismatch,
)
from .gf import GF
from .linalg import kernel_basis, rref
from .poly import (
    MINUS_INF,
    padd,
    pdeg,
    peval,
    pgcd,
    pmap,
    pmul,
    pnorm,
    pshift,
    psub,
)

DEFAULT_BUDGET = 10 ** 8


@dataclass(frozen=True)
class SplitBundle:
    """Direct sum of line bundles O(a_1) + ... + O(a_n), twists nonincreasing."""

    field: GF
    twists: tuple

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple(int(a) for a in self.twists))
        if len(self.twists) < 1:
            raise ShapeMismatch("a bundle needs rank >= 1")
        if any(a < b for a, b in zip(self.twists, self.twists[1:])):
            raise ShapeMismatch("twists must be nonincreasing")

    @property
    def rank(self) -> int:
        return len(self.twists)

    @property
    def degree(self) -> int:
        return sum(self.twists)

    def check_subbundle_rank(self, r: int):
        """Raise ShapeMismatch unless r is the rank of a subbundle, in [1, n]."""
        if not 1 <= r <= self.rank:
            raise ShapeMismatch(f"rank must be in [1, {self.rank}], got {r}")


class Subbundle:
    """A vector subbundle of a SplitBundle in matrix presentation."""

    __slots__ = ("bundle", "col_twists", "mat", "__dict__")

    def __init__(self, bundle: SplitBundle, col_twists, mat):
        self.bundle = bundle
        self.col_twists = tuple(int(d) for d in col_twists)
        self.mat = tuple(tuple(pnorm(e) for e in row) for row in mat)

    @property
    def rank(self) -> int:
        return len(self.col_twists)

    @property
    def degree(self) -> int:
        return sum(self.col_twists)

    @cached_property
    def key(self):
        return canonical_key(self.bundle, self)

    def sort_key(self):
        return (self.col_twists, self.key)

    def __eq__(self, other):
        if not isinstance(other, Subbundle):
            return NotImplemented
        return (
            self.bundle == other.bundle
            and self.col_twists == other.col_twists
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.bundle, self.col_twists, self.key))

    def __repr__(self):
        return f"Subbundle(rank={self.rank}, degree={self.degree})"

    def fiber_matrix(self, x: int):
        """Columns evaluated at the finite point x: an n x r matrix over F_q."""
        F = self.bundle.field
        return tuple(tuple(peval(F, e, x) for e in row) for row in self.mat)

    @cached_property
    def _fibers(self):
        return {}  # point -> fiber rows

    def fiber_rows(self, x: int):
        """The fiber at x as r rows of length n (fiber_matrix transposed),
        computed once per point."""
        hit = self._fibers.get(x)
        if hit is None:
            hit = self._fibers[x] = tuple(zip(*self.fiber_matrix(x)))
        return hit

    @cached_property
    def _minors(self):
        """The r x r minors of the presentation, as _maximal_minors lays
        them out."""
        F, n = self.bundle.field, self.bundle.rank
        return _maximal_minors(F, n, tuple(zip(*self.mat)))

    def contains(self, other: "Subbundle") -> bool:
        """Subsheaf containment: other's columns lie in the generic span,
        i.e. for each column u of other every (r+1)-minor of self's columns
        followed by u vanishes.  A full-rank self has no such minors."""
        if other.rank == 0:
            return True
        if other.rank > self.rank:
            return False
        F, n = self.bundle.field, self.bundle.rank
        plan = _laplace_plan(n, self.rank)
        return not any(
            any(_extend_minors(F, self._minors, u, plan)) for u in zip(*other.mat)
        )

    def extend_scalars(self, m: int) -> "Subbundle":
        big, embed = self.bundle.field.extension(m)
        new_bundle = SplitBundle(big, self.bundle.twists)
        new_mat = tuple(tuple(pmap(e, embed) for e in row) for row in self.mat)
        return Subbundle(new_bundle, self.col_twists, new_mat)


def zero_subbundle(E: SplitBundle) -> Subbundle:
    return Subbundle(E, (), tuple(() for _ in range(E.rank)))


def full_subbundle(E: SplitBundle) -> Subbundle:
    n = E.rank
    mat = tuple(tuple((1,) if i == j else () for j in range(n)) for i in range(n))
    return Subbundle(E, E.twists, mat)


# -- validation and canonical keys --------------------------------------------


def _check_shape(E: SplitBundle, col_twists, mat):
    n = E.rank
    r = len(col_twists)
    if len(mat) != n or any(len(row) != r for row in mat):
        raise ShapeMismatch(f"matrix must be {n} x {r}")
    for j in range(n):
        for k in range(r):
            bound = E.twists[j] - col_twists[k]
            d = pdeg(mat[j][k])
            if d is not MINUS_INF and d > bound:
                raise DegreeBoundViolated(
                    f"entry ({j},{k}) has degree {d}, bound {bound}"
                )


@cache
def _laplace_plan(n: int, k: int):
    """How the (k+1)-row minors of k+1 columns expand along the last column.

    One entry per (k+1)-subset S of range(n), in combinations order: a
    triple (j, i, neg) per row j of S, where i indexes S - {j} among the
    k-subsets in combinations order and neg says the cofactor sign
    (-1)^(p+k) of j's position p in S is negative.
    """
    index = {S: i for i, S in enumerate(itertools.combinations(range(n), k))}
    return tuple(
        tuple((j, index[S[:p] + S[p + 1:]], (p + k) % 2 == 1) for p, j in enumerate(S))
        for S in itertools.combinations(range(n), k + 1)
    )


def _extend_minors(F: GF, minors, col, plan):
    """The (k+1)-row minors of a prefix of k columns followed by col, from
    the prefix's k-row minors: k+1 products each, by Laplace expansion
    along col."""
    out = []
    for terms in plan:
        acc = ()
        for j, i, neg in terms:
            c = col[j]
            m = minors[i]
            if c and m:
                acc = psub(F, acc, pmul(F, c, m)) if neg else padd(F, acc, pmul(F, c, m))
        out.append(acc)
    return out


def _full_degrees(E: SplitBundle, col_twists):
    """Per r-subset S of rows, in combinations order, the degree bound
    sum_{j in S} a_j - sum_k d_k of the minor on S."""
    dsum = sum(col_twists)
    return tuple(
        sum(E.twists[j] for j in S) - dsum
        for S in itertools.combinations(range(E.rank), len(col_twists))
    )


def _saturated(F: GF, minors, full_degrees) -> bool:
    """The saturation test on the maximal minors of a presentation: their
    gcd is 1 (the columns stay independent at every finite point) and some
    minor reaches its degree bound (they stay independent at infinity).
    Stops as soon as both hold."""
    g = ()
    lead_ok = False
    for m, full in zip(minors, full_degrees):
        if not m:
            continue
        if len(m) - 1 == full:
            lead_ok = True
        if g != (1,):
            g = pgcd(F, g, m)
        if g == (1,) and lead_ok:
            return True
    return False


def _maximal_minors(F: GF, n: int, cols):
    """The r x r minors of the n x r matrix with the given columns, one per
    r-subset of rows in combinations order, built one column at a time."""
    minors = ((1,),)  # the empty minor
    for k, col in enumerate(cols):
        minors = _extend_minors(F, minors, col, _laplace_plan(n, k))
    return minors


def subbundle_validate(E: SplitBundle, col_twists, mat) -> bool:
    """True iff the presentation defines a subbundle (torsion-free cokernel):
    its maximal minors, built by prefix Laplace passes, pass _saturated."""
    col_twists = tuple(col_twists)
    mat = tuple(tuple(pnorm(e) for e in row) for row in mat)
    _check_shape(E, col_twists, mat)
    if not col_twists:
        return True
    cols = tuple(zip(*mat))
    minors = _maximal_minors(E.field, E.rank, cols)
    return _saturated(E.field, minors, _full_degrees(E, col_twists))


def make_subbundle(E: SplitBundle, col_twists, mat) -> Subbundle:
    if not subbundle_validate(E, col_twists, mat):
        raise InvalidSubbundle("presentation does not define a subbundle")
    return Subbundle(E, col_twists, mat)


def section_twist(E: SplitBundle, col_twists) -> int:
    """Twist making every column globally generated with one degree of slack."""
    if not col_twists:
        return 0
    dmin = min(col_twists)
    return max(1 + max(E.twists) - dmin, -dmin)


def canonical_key(E: SplitBundle, W: Subbundle):
    """Echelon basis of H^0(W(N0)) in the coordinates of H^0(E(N0))."""
    F = E.field
    if W.rank == 0:
        return ((), ())
    n0 = section_twist(E, W.col_twists)
    block = [max(0, a + n0 + 1) for a in E.twists]
    offs = [0]
    for b in block:
        offs.append(offs[-1] + b)
    dim = offs[-1]
    rows = []
    for k in range(W.rank):
        col = [W.mat[j][k] for j in range(E.rank)]
        for e in range(W.col_twists[k] + n0 + 1):
            vec = [0] * dim
            for j in range(E.rank):
                p = pshift(col[j], e)
                for i, c in enumerate(p):
                    vec[offs[j] + i] = c
            rows.append(tuple(vec))
    red, rank, _ = rref(F, rows)
    return (n0, red[:rank])


# -- enumeration ---------------------------------------------------------------


def nonincreasing_tuples(values, k: int, total):
    """Nonincreasing k-tuples drawn with repetition from the strictly
    descending sequence values and summing to total, in decreasing
    lexicographic order.

    A branch is cut as soon as its remaining sum falls outside what the open
    slots can reach: at most the current value in each, at least the last.
    The last entry is the remaining sum itself, found by one dict lookup.
    """
    low = values[-1] if values else 0
    index = {v: i for i, v in enumerate(values)}
    out = []

    def rec(prefix, start, remaining):
        left = k - len(prefix)
        if left == 1:  # the remaining sum is the last entry
            i = index.get(remaining)
            if i is not None and i >= start:
                out.append(tuple(prefix) + (values[i],))
            return
        if left == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for i in range(start, len(values)):
            v = values[i]
            if v * left < remaining:
                break  # values descend: every later choice falls short too
            if (left - 1) * low <= remaining - v <= (left - 1) * v:
                rec(prefix + [v], i, remaining - v)

    rec([], 0, total)
    return out


def _column_slots(E: SplitBundle, d_k: int):
    """(row, ncoeffs) pairs for the free entries of a column of twist d_k."""
    return [
        (j, E.twists[j] - d_k + 1)
        for j in range(E.rank)
        if E.twists[j] >= d_k
    ]


def _column(n: int, slots, flat):
    """The column, as an n-tuple of polynomials, whose free slots hold the
    coefficient vector flat, slot by slot, low degree first."""
    col = [()] * n
    at = 0
    for j, s in slots:
        col[j] = pnorm(flat[at:at + s])
        at += s
    return tuple(col)


def _column_candidates(F: GF, n: int, slots):
    """All nonzero columns with the given free slots, as n-tuples of
    polynomials, first nonzero coefficient pinned to 1.

    Scaling a column never changes the subsheaf, so one representative per
    scalar class is enough.  The order is that of the coefficient vectors:
    the position of the leading 1, then the rest counting up in base q with
    the last coefficient fastest, the order _saturated_choices walks the last
    column in.  A generator: a rank-1 window streams its one column list.
    """
    total = sum(s for _, s in slots)
    for lead in range(total):
        for rest in itertools.product(range(F.q), repeat=total - lead - 1):
            yield _column(n, slots, (0,) * lead + (1,) + rest)


def _count_column_candidates(q: int, slots) -> int:
    total = sum(s for _, s in slots)
    return (q ** total - 1) // (q - 1)


def enumerate_candidate_count(E: SplitBundle, r: int, d: int, min_col_twist: int) -> int:
    q = E.field.q
    count = 0
    twists = range(max(E.twists), min_col_twist - 1, -1)
    for vec in nonincreasing_tuples(twists, r, d):
        prod = 1
        for dk in vec:
            prod *= _count_column_candidates(q, _column_slots(E, dk))
        count += prod
    return count


def _minor_offsets(full_degrees):
    """The layout of the flattened maximal minors: the minor on the s-th
    row subset fills the full_degrees[s] + 1 coefficients from offsets[s]
    on, low degree first (none if its bound is negative: it vanishes), and
    offsets[-1] is the length."""
    offsets = [0]
    for f in full_degrees:
        offsets.append(offsets[-1] + max(0, f + 1))
    return offsets


def _minor_key(F: GF, flat):
    """The flattened maximal minors scaled so the first nonzero coefficient
    is 1, or None if every minor vanishes."""
    lead = next(filter(None, flat), 0)
    if lead == 1:
        return tuple(flat)
    if lead == 0:
        return None
    return tuple(F.row_scale(flat, F.inv(lead)))


def _saturated_choices(F: GF, E: SplitBundle, vec):
    """The subbundles presented by one candidate column per twist in vec,
    one column tuple per subsheaf: of the choices with equal minor keys,
    the last saturated one in itertools.product order over the candidate
    lists.

    The first r - 1 columns: a depth-first walk keeps the k x k minors of
    the chosen prefix and extends them by one Laplace pass per new column.
    A prefix whose minors all vanish has dependent columns, so nothing
    under it validates and its whole subtree is skipped.

    The last column, by linearity.  With the prefix fixed, expanding the
    minor on a row subset S along the last column c gives
    sum_{j in S} +-c_j M_{S-j}, where M are the prefix's minors; with
    c_j = sum_e x_{j,e} t^e, every maximal minor is an F_q-linear function
    of the coefficient vector x.  Each minor on S has degree at most its
    full degree, so the minors flatten to one vector of fixed layout
    (_minor_offsets), and the flattened minors of x are sum_p x_p img_p,
    where img_p, the image of the p-th coefficient slot, is computed once
    per prefix.  The last column is never built: an odometer walks x in
    _column_candidates order, and a coefficient going from c to c' adds
    (c' - c) img_p, one row_addmul, about q/(q-1) of them per step.

    Saturation is tested once per minor key.  A key scales the flattened
    minors so their first nonzero coefficient is 1, so two choices share a
    key exactly when their minors are proportional, m' = u m with u a
    nonzero constant.  Then the gcds of m and m' agree (gcds are monic) and
    so does the degree of every minor, so _saturated, unit gcd and some
    minor at its full degree, gives both the same verdict.  The kept
    choice is recorded as (prefix, coefficient vector) and turned into
    columns only once the walk is over.
    """
    n, r = E.rank, len(vec)
    cands = [list(_column_candidates(F, n, _column_slots(E, dk))) for dk in vec[:-1]]
    plans = [_laplace_plan(n, k) for k in range(r)]
    full = _full_degrees(E, vec)
    offsets = _minor_offsets(full)
    blocks = list(zip(offsets, offsets[1:]))
    slots = _column_slots(E, vec[-1])
    # per row of the last column: (offset of S, index of S - {j}, sign)
    # for every row subset S that contains it
    terms = {j: [] for j, _ in slots}
    for at, expansion in zip(offsets, plans[r - 1]):
        for j, i, neg in expansion:
            if j in terms:
                terms[j].append((at, i, neg))
    top = F.q - 1
    step = [F.sub(c + 1, c) for c in range(top)]  # c -> c + 1
    wrap = F.sub(0, top)  # top -> 0
    addmul = F.row_addmul
    kept = {}  # minor key -> False (not saturated) or (prefix, coefficients)

    def leaves(minors, prefix):
        signed = [(m, F.row_neg(m)) for m in minors]
        imgs = []
        for j, size in slots:
            for e in range(size):
                img = [0] * offsets[-1]
                for at, i, neg in terms[j]:
                    m = signed[i][neg]
                    img[at + e:at + e + len(m)] = m
                imgs.append(img)
        total = len(imgs)
        for lead in range(total):
            x = [0] * total
            x[lead] = 1
            flat = imgs[lead]
            while True:
                key = _minor_key(F, flat)
                if key is not None:
                    got = kept.get(key)
                    if got is None and not _saturated(
                        F, [pnorm(key[a:b]) for a, b in blocks], full
                    ):
                        got = kept[key] = False
                    if got is not False:
                        kept[key] = (prefix, tuple(x))
                p = total - 1
                while p > lead and x[p] == top:
                    x[p] = 0
                    flat = addmul(flat, wrap, imgs[p])
                    p -= 1
                if p == lead:
                    break
                c = x[p]
                x[p] = c + 1
                flat = addmul(flat, step[c], imgs[p])

    def walk(k, minors, prefix):
        if k == r - 1:
            leaves(minors, prefix)
            return
        for col in cands[k]:
            ext = _extend_minors(F, minors, col, plans[k])
            if any(ext):
                walk(k + 1, ext, prefix + (col,))

    walk(0, ((1,),), ())
    last = {}  # coefficients -> column: kept choices share their last columns
    return [
        prefix + (last.get(x) or last.setdefault(x, _column(n, slots, x)),)
        for prefix, x in filter(None, kept.values())
    ]


def enumerate_subbundles(
    E: SplitBundle,
    r: int,
    d: int,
    min_col_twist: int,
    budget: int = DEFAULT_BUDGET,
):
    """All rank-r subbundles of total degree d, one object per subsheaf.

    Column twists range over nonincreasing vectors in [min_col_twist, a_1]
    summing to d; the result is sorted by canonical key.

    Each column ranges over the nonzero fills of its degree bounds with the
    first nonzero coefficient 1.  At rank 1 the column is its own minors:
    it is tested for saturation and, pinned, is its own subsheaf.  At
    higher rank (_saturated_choices) a depth-first walk over the column
    lists, in itertools.product order, keeps the minors of the chosen
    prefix, extends them by one Laplace pass per column, and skips the
    subtree of a prefix whose minors all vanish (its columns are
    dependent).  Under a prefix the maximal minors are linear in the last
    column's coefficients, so each last column costs a row_addmul or two
    on the flattened minors, not a Laplace pass.  The minors give the
    saturation test (unit gcd, and some minor at its full degree
    sum_S a_j - sum_k d_k) and the key: the flattened minors scaled so the
    first nonzero coefficient is 1.  The test runs once per key, since
    proportional minors pass or fail it together.  Only the subbundles kept
    become Subbundle objects and get a canonical key, for the final sort.

    The minor key identifies subsheaves within one twist vector.  Two
    presentations M, M' of one subbundle with equal column twists are two
    isomorphisms from O(d_1) + ... + O(d_r) onto it, so M' = M A for an
    automorphism A of that sum; det A is a global function on the line,
    a nonzero constant, and the minors of M' are det A times those of M.
    Conversely, proportional minor (Plucker) vectors have the same generic
    column span, and both presentations are saturated, so they give the
    same subsheaf.

    Which presentation stands for a subsheaf: at rank 1 it has exactly one
    candidate.  At higher rank several candidates of one twist vector can
    share a key, and the last validated one in column-product order is
    kept.  Reports print these matrices, so another enumeration order must
    keep them or change the reports.
    """
    n = E.rank
    E.check_subbundle_rank(r)
    if d > sum(E.twists[:r]):
        return ()
    count = enumerate_candidate_count(E, r, d, min_col_twist)
    if count > budget:
        raise BudgetExceeded(count, budget)
    F = E.field
    subs = []
    twists = range(max(E.twists), min_col_twist - 1, -1)
    for vec in nonincreasing_tuples(twists, r, d):
        if r == 1:
            full = _full_degrees(E, vec)
            subs.extend(
                Subbundle(E, vec, tuple(zip(col)))
                for col in _column_candidates(F, n, _column_slots(E, vec[0]))
                if _saturated(F, col, full)
            )
        else:
            subs.extend(Subbundle(E, vec, tuple(zip(*cols)))
                        for cols in _saturated_choices(F, E, vec))
    return tuple(sorted(subs, key=Subbundle.sort_key))




# -- annihilators, quotients and saturation --------------------------------------


def perp(F: GF, twists, cols, col_twists):
    """The annihilator W^⊥ of the subsheaf W spanned by generically
    independent columns, split: (twists e_1 >= ... >= e_{n-r}, generators).

    The ambient is E = O(b_1) + ... + O(b_n), b in any order, and column k,
    of twist d_k, has entry j of degree at most b_j - d_k.  W^⊥ is the
    subbundle of forms phi of E^∨ with phi·col_k = 0 for every k.  A section
    of E^∨(m) has phi_j of degree at most m - b_j, so H^0(W^⊥(m)) is the
    kernel of an F_q-linear map on the coefficients of phi.  These spaces
    form a free graded module over F_q[x_0, x_1] whose minimal generators
    split W^⊥.  They are read off level by level from m = min b: what the
    levels below generate in level m is spanned by H^0(W^⊥(m-1)) and
    t·H^0(W^⊥(m-1)), and the new generators, of twist -m, are the rows of
    the kernel's reduced echelon form whose pivots that span lacks.  So
    they depend only on the subsheaf.  A generator is returned as its n
    entries, a column of twist e over the ambient -b, and perp of those
    columns over -b is the saturation of W.

    Independent columns span a sheaf of degree sum d_k, so W^⊥, of rank
    n - r, has degree at least sum d_k - sum b_j, and each e_k is at most
    -min b.  The last generator therefore turns up by the level
    sum b_j - sum d_k - (n - r - 1) min b, and not finding it there is an
    engine bug.
    """
    n, r = len(twists), len(cols)
    low = min(twists)
    top = sum(twists) - sum(col_twists) - (n - r - 1) * low
    e, gens = [], []
    prev, prev_offs = (), ()
    m = low
    while len(e) < n - r:
        if m > top:
            raise AssertionError("perp ran past its level bound")
        sizes = [max(0, m - b + 1) for b in twists]
        offs = tuple(itertools.accumulate(sizes, initial=0))
        eqs = []  # coefficient of t^p in phi·col_k, p <= m - d_k
        for col, d in zip(cols, col_twists):
            block = [[0] * offs[-1] for _ in range(m - d + 1)]
            for j, c in enumerate(col):
                for i in range(sizes[j]):
                    for p, x in enumerate(c, i):
                        block[p][offs[j] + i] = x
            eqs.extend(block)
        kernel = kernel_basis(F, eqs, ncols=offs[-1])
        lower = []  # 1·phi and t·phi for phi of level m - 1
        for v in prev:
            one, tee = [], []
            for j in range(n):
                part = list(v[prev_offs[j]:prev_offs[j + 1]])
                pad = [0] * (sizes[j] - len(part))
                one += part + pad
                tee += pad + part
            lower += (one, tee)
        known = set(rref(F, lower)[2])
        red, rank, pivots = rref(F, kernel)
        for row, p in zip(red[:rank], pivots):
            if p not in known:
                e.append(-m)
                gens.append(tuple(pnorm(row[a:b]) for a, b in zip(offs, offs[1:])))
        prev, prev_offs = kernel, offs
        m += 1
    if len(e) != n - r:
        raise AssertionError("perp found more generators than the corank")
    return tuple(e), tuple(gens)


@dataclass(frozen=True)
class QuotientMap:
    """Chart data for E -> E/W: splitting type plus fiber projections."""

    bundle: SplitBundle  # the quotient, split form
    proj: tuple  # (n-r) x n polynomial matrix on the t-chart, split frame

    def at(self, x: int):
        F = self.bundle.field
        return tuple(tuple(peval(F, e, x) for e in row) for row in self.proj)


def quotient_bundle(E: SplitBundle, W: Subbundle):
    """Splitting type of E/W plus explicit fiber projections.

    E/W is the dual of W^⊥ = O(e_1) + ... + O(e_{n-r}) (perp), so its
    twists are -e_k, reversed to be nonincreasing, and the projection's
    rows are W^⊥'s generators in the same order: the k-th quotient
    coordinate of a section of E is the k-th form applied to it.  Returns
    (SplitBundle, QuotientMap).  A presentation that is not a subbundle
    (dependent columns, or torsion in E/W) fails subbundle_validate and
    raises InvalidSubbundle.
    """
    F = E.field
    if W.rank == E.rank:
        raise FullRank("cannot form the quotient by a full-rank subbundle")
    if not subbundle_validate(E, W.col_twists, W.mat):
        raise InvalidSubbundle("presentation does not define a subbundle")
    e, gens = perp(F, E.twists, tuple(zip(*W.mat)), W.col_twists)
    Q = SplitBundle(F, tuple(-x for x in reversed(e)))
    return Q, QuotientMap(Q, gens[::-1])


def saturate(E: SplitBundle, col_twists, mat) -> Subbundle:
    """Smallest subbundle containing the image of the given presentation:
    (W^⊥)^⊥, two perp calls."""
    col_twists = tuple(col_twists)
    mat = tuple(tuple(pnorm(e) for e in row) for row in mat)
    _check_shape(E, col_twists, mat)
    F = E.field
    image = tuple(zip(*mat))
    if not any(_maximal_minors(F, E.rank, image)):
        raise NotInjective("presentation is not generically injective")
    e, forms = perp(F, E.twists, image, col_twists)
    d, cols = perp(F, tuple(-a for a in E.twists), forms, e)
    return Subbundle(E, d, tuple(tuple(c[j] for c in cols) for j in range(E.rank)))
