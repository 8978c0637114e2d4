"""Vector bundles and subbundles on the projective line over F_q.

A bundle is a direct sum of line bundles with nonincreasing twists; the two
standard affine charts carry coordinates t and s = 1/t, and a rank-r subbundle
is presented by an n x r polynomial matrix on the t-chart whose entry (j, k)
has degree at most a_j - d_k.  The presentation is a subbundle (rather than a
mere subsheaf) exactly when the r x r minors have unit gcd and some minor
attains its maximal homogeneous degree, i.e. the columns stay independent at
every point of the projective line over the algebraic closure.

The maximal minors are kept in one form: flattened, the minor on each
r-subset S of rows laid out in combinations order as its coefficients up to
its degree bound sum_{j in S} a_j - sum_k d_k.  They grow one column at a
time.  Expanding a minor on S along an appended column c gives
sum_{j in S} +-c_j M_{S-j}, so each free coefficient t^e of c_j adds
+-M_{S-j} at offset e of the block of S; one cached table per shape
(_expansion) lists these placements.  A concrete column extends a flat
vector through the table directly; the enumerator turns the table into one
image per free coefficient and walks the columns of every level by
F_q-linear updates of those images.

Every question about a presentation's columns reads these minors.
subbundle_validate asks that they pass one saturation test;
Subbundle.contains extends a subbundle's cached minors by each column of
the other and asks that every (r+1)-minor vanish; make_subbundle and
quotient_bundle validate through a Subbundle's cached minors; saturate's
injectivity test asks that some maximal minor survive.

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
from .poly import peval, pgcd, pmap, pnorm, pshift

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
        """The flattened maximal minors of the presentation (_flat_minors)."""
        return _flat_minors(self.bundle, self.col_twists, zip(*self.mat))

    def contains(self, other: "Subbundle") -> bool:
        """Subsheaf containment: other's columns lie in the generic span,
        i.e. for each column u of other every (r+1)-minor of self's columns
        followed by u vanishes.  A full-rank self has no such minors."""
        if other.rank > self.rank:
            return False
        E, minors = self.bundle, self._minors
        for d, u in zip(other.col_twists, zip(*other.mat)):
            table, offsets = _expansion(E.twists, self.col_twists, d)
            if any(_extend(E.field, minors, u, table, offsets[-1])):
                return False
        return True

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
            c = mat[j][k]
            if c and len(c) - 1 > bound:  # the zero polynomial has no degree
                raise DegreeBoundViolated(
                    f"entry ({j},{k}) has degree {len(c) - 1}, bound {bound}"
                )


@cache
def _expansion(twists, dvec, d):
    """How the flattened maximal minors of columns of twists dvec extend
    by a column of twist d: (table, offsets).

    offsets lays out the extended minors: the minor on the s-th
    (k+1)-subset S of rows, k = len(dvec), in combinations order, fills
    offsets[s] up to offsets[s + 1], its coefficients low degree first up
    to its bound sum_{j in S} a_j - sum dvec - d (none if the bound is
    negative: it vanishes), and offsets[-1] is the length.

    table[j] = (free, terms) for row j of the new column: free is the
    number of its free coefficients, a_j - d + 1 or 0, and each term
    (at, lo, hi, neg) says the coefficient of t^e adds the old minor on
    S - {j}, flat[lo:hi], at offset at + e, negated if the cofactor sign
    (-1)^(p+k) of j's position p in S is.  The degree bounds make the
    placement fit its block.
    """
    n, k = len(twists), len(dvec)
    old = _offsets(twists, dvec)
    offsets = _offsets(twists, dvec + (d,))
    index = {S: i for i, S in enumerate(itertools.combinations(range(n), k))}
    terms = [[] for _ in range(n)]
    for at, S in zip(offsets, itertools.combinations(range(n), k + 1)):
        for p, j in enumerate(S):
            i = index[S[:p] + S[p + 1:]]
            if old[i] < old[i + 1]:
                terms[j].append((at, old[i], old[i + 1], (p + k) % 2 == 1))
    table = tuple(
        (max(0, a - d + 1), tuple(t)) for a, t in zip(twists, terms)
    )
    return table, offsets


def _offsets(twists, dvec):
    """The layout of the flattened maximal minors of columns of twists dvec
    (see _expansion); no columns have one minor, the constant 1."""
    dsum = sum(dvec)
    offsets = [0]
    for S in itertools.combinations(range(len(twists)), len(dvec)):
        offsets.append(offsets[-1] + max(0, sum(twists[j] for j in S) - dsum + 1))
    return tuple(offsets)


def _extend(F: GF, flat, col, table, size):
    """The flattened minors of a presentation followed by the column col,
    from the presentation's flattened minors flat: each nonzero
    coefficient places its terms of table (_expansion).  An entry above
    its degree bound raises DegreeBoundViolated."""
    out = [0] * size
    for j, (c, (free, terms)) in enumerate(zip(col, table)):
        if len(c) > free:
            raise DegreeBoundViolated(
                f"row {j} has degree {len(c) - 1}, bound {free - 1}"
            )
        for e, x in enumerate(c):
            if x:
                nx = F.neg(x)
                for at, lo, hi, neg in terms:
                    at += e
                    end = at + hi - lo
                    out[at:end] = F.row_addmul(out[at:end], nx if neg else x, flat[lo:hi])
    return out


def _flat_minors(E: SplitBundle, col_twists, cols):
    """The flattened maximal minors of the columns cols, of twists
    col_twists, extended one column at a time from the constant 1."""
    flat = [1]
    for k, col in enumerate(cols):
        table, offsets = _expansion(E.twists, col_twists[:k], col_twists[k])
        flat = _extend(E.field, flat, col, table, offsets[-1])
    return flat


def _split(flat, offsets):
    """The polynomials that offsets lays out in flat, low degree first: the
    maximal minors of a flattened vector, or the entries of a column whose
    free coefficients are flat (a column is its own minors)."""
    return tuple(pnorm(flat[lo:hi]) for lo, hi in zip(offsets, offsets[1:]))


def _saturated(F: GF, minors, offsets) -> bool:
    """The saturation test on the maximal minors of a presentation, as
    _split gives them: their gcd is 1 (the columns stay independent at
    every finite point) and some minor reaches its degree bound, the
    length of its block (they stay independent at infinity).  Stops as
    soon as both hold."""
    g = ()
    lead_ok = False
    for m, lo, hi in zip(minors, offsets, offsets[1:]):
        if not m:
            continue
        if len(m) == hi - lo:
            lead_ok = True
        if g != (1,):
            g = pgcd(F, g, m)
        if g == (1,) and lead_ok:
            return True
    return False


def _is_subbundle(W: Subbundle) -> bool:
    """Whether the presentation W, checked for shape and degree bounds,
    defines a subbundle: its cached minors pass _saturated."""
    E = W.bundle
    _check_shape(E, W.col_twists, W.mat)
    if not W.col_twists:
        return True
    offsets = _offsets(E.twists, W.col_twists)
    return _saturated(E.field, _split(W._minors, offsets), offsets)


def subbundle_validate(E: SplitBundle, col_twists, mat) -> bool:
    """True iff the presentation defines a subbundle (torsion-free cokernel)."""
    return _is_subbundle(Subbundle(E, col_twists, mat))


def make_subbundle(E: SplitBundle, col_twists, mat) -> Subbundle:
    W = Subbundle(E, col_twists, mat)
    if not _is_subbundle(W):
        raise InvalidSubbundle("presentation does not define a subbundle")
    return W


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


def enumerate_candidate_count(E: SplitBundle, r: int, d: int, min_col_twist: int) -> int:
    q = E.field.q
    count = 0
    twists = range(max(E.twists), min_col_twist - 1, -1)
    for vec in nonincreasing_tuples(twists, r, d):
        prod = 1
        for dk in vec:
            free = _offsets(E.twists, (dk,))[-1]  # a column is its own minors
            prod *= (q ** free - 1) // (q - 1)
        count += prod
    return count


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
    the last saturated one in candidate-product order.

    A depth-first walk over the columns.  With a prefix of k columns fixed,
    expanding the minor on a (k+1)-subset S of rows along the next column c
    gives sum_{j in S} +-c_j M_{S-j}, where M are the prefix's flattened
    minors; with c_j = sum_e x_{j,e} t^e, the extended minors are
    sum_p x_p img_p, F_q-linear in the coefficient vector x.  The image
    img_p of each coefficient is read off the cached table _expansion
    once per prefix.  At every level alike an odometer walks x over the
    candidates in their order (the position of the leading 1, then the
    rest counting up in base q, the last coefficient fastest), and a
    coefficient going from c to c' adds (c' - c) img_p: one row_addmul,
    about q/(q-1) of them per step.  A prefix whose minors all vanish has
    dependent columns, so nothing under it validates and its whole subtree
    is skipped.

    Saturation is tested once per minor key.  A key scales the flattened
    minors so their first nonzero coefficient is 1, so two choices share a
    key exactly when their minors are proportional, m' = u m with u a
    nonzero constant.  Then the gcds of m and m' agree (gcds are monic) and
    so does the degree of every minor, so _saturated, unit gcd and some
    minor at its full degree, gives both the same verdict.  The kept
    choice is recorded as its coefficient vectors and turned into columns
    only once the walk is over.
    """
    r = len(vec)
    levels = [_expansion(E.twists, vec[:k], vec[k]) for k in range(r)]
    offsets = levels[-1][1]
    top = F.q - 1
    step = [F.add(c + 1, F.neg(c)) for c in range(top)]  # c -> c + 1
    wrap = F.neg(top)  # top -> 0
    addmul = F.row_addmul
    kept = {}  # minor key -> False (not saturated) or coefficient vectors

    def walk(k, flat, prefix):
        table, offs = levels[k]
        neg = F.row_scale(flat, F.neg(1))
        imgs = []
        for free, terms in table:
            for e in range(free):
                img = [0] * offs[-1]
                for at, lo, hi, sign in terms:
                    img[at + e:at + e + hi - lo] = (neg if sign else flat)[lo:hi]
                imgs.append(img)
        total = len(imgs)
        for lead in range(total):
            x = [0] * total
            x[lead] = 1
            m = imgs[lead]
            while True:
                if k < r - 1:
                    if any(m):
                        walk(k + 1, m, prefix + (tuple(x),))
                elif (key := _minor_key(F, m)) is not None:
                    got = kept.get(key)
                    if got is None and not _saturated(F, _split(key, offsets), offsets):
                        got = kept[key] = False
                    if got is not False:
                        kept[key] = prefix + (tuple(x),)
                p = total - 1
                while p > lead and x[p] == top:
                    x[p] = 0
                    m = addmul(m, wrap, imgs[p])
                    p -= 1
                if p == lead:
                    break
                c = x[p]
                x[p] = c + 1
                m = addmul(m, step[c], imgs[p])

    walk(0, [1], ())
    layouts = [_offsets(E.twists, (d,)) for d in vec]
    return [
        tuple(_split(x, o) for x, o in zip(xs, layouts))
        for xs in filter(None, kept.values())
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
    first nonzero coefficient 1.  At rank 1 the coefficient vector is its
    own flattened minors, and split it is the column: it is tested for
    saturation and, pinned, is its own subsheaf.  At higher rank
    (_saturated_choices) a depth-first walk keeps the flattened minors of
    the chosen prefix and, since the minors are linear in the next
    column's coefficients, steps through each level's columns by a
    row_addmul or two on them, skipping the subtree of a prefix whose
    minors all vanish (its columns are dependent).  The minors give the
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
        if r > 1:
            subs.extend(Subbundle(E, vec, tuple(zip(*cols)))
                        for cols in _saturated_choices(F, E, vec))
            continue
        offsets = _offsets(E.twists, vec)
        total = offsets[-1]
        for lead in range(total):
            for rest in itertools.product(range(F.q), repeat=total - lead - 1):
                col = _split((0,) * lead + (1,) + rest, offsets)
                if _saturated(F, col, offsets):
                    subs.append(Subbundle(E, vec, tuple(zip(col))))
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
    (dependent columns, or torsion in E/W) fails the saturation test on
    W's cached minors and raises InvalidSubbundle.
    """
    F = E.field
    if W.rank == E.rank:
        raise FullRank("cannot form the quotient by a full-rank subbundle")
    if not _is_subbundle(W):
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
    if not any(_flat_minors(E, col_twists, image)):
        raise NotInjective("presentation is not generically injective")
    e, forms = perp(F, E.twists, image, col_twists)
    d, cols = perp(F, tuple(-a for a in E.twists), forms, e)
    return Subbundle(E, d, tuple(tuple(c[j] for c in cols) for j in range(E.rank)))
