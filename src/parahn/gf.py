"""Finite fields F_{p^k} with canonical, serialization-stable construction.

Elements are plain ints in [0, p^k): the coefficient vector (c_0, ..., c_{k-1})
of the residue class mod the field's modulus, packed base p as
c_0 + c_1*p + ... .  All arithmetic goes through the owning GF instance.
A proper extension is F_p[x]/(f), built with poly's kernels over the prime
field field_make(p, 1): products are pmul then pdivmod by f, irreducibility
is Ben-Or's gcd test, and embeddings evaluate with peval.  Prime-field codes
0..p-1 mean the same element in every field of characteristic p.

Fields with at most _TABLE_MAX = 256 elements precompute dense add, mul, neg
and inv tables, so each of those element operations is one lookup.  There is
no subtraction: x - c*y is x + (-c)*y.  Bulk work (echelon forms, polynomial
arithmetic) goes through the three row primitives row_scale, row_addmul and
row_horner, which act on whole rows at once.  They are the one place outside
the element methods that branches on the tables:
the table branch fetches one table row per call and then does plain list
lookups, so linalg and poly never see a table and have one copy of each
kernel.  Larger fields have no tables; there the row primitives fall back to
the element methods, which work on coefficient vectors.

The modulus of a proper extension is pinned, so serialized data is portable
across runs and machines: it is the monic irreducible x^k + c_{k-1} x^{k-1}
+ ... + c_0 whose lower coefficients have the smallest code c_0 + c_1 p + ...
+ c_{k-1} p^(k-1), the code of an element.  For F_8 that is x^3 + x + 1,
(1, 1, 0, 1) low-to-high, not the low-to-high lexicographic minimum
x^3 + x^2 + 1.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import FieldMismatch, InvalidDegree, NotPrime
from .poly import pdivmod, peval, pgcd, pmul, psub

_TABLE_MAX = 256  # fields up to this order get dense op tables


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _mulmod(Fp: GF, a, b, f):
    """a * b mod f, for polynomials over the prime field Fp."""
    return pdivmod(Fp, pmul(Fp, a, b), f)[1]


def _is_irreducible(Fp: GF, f) -> bool:
    """Ben-Or's test for a monic f of degree k over Fp: f is irreducible iff
    gcd(x^(p^i) - x, f) = 1 for 1 <= i <= k/2, since x^(p^i) - x is the
    product of the monic irreducibles whose degree divides i."""
    x = xpi = (0, 1)
    for _ in range((len(f) - 1) // 2):
        acc, base, e = (1,), xpi, Fp.p  # xpi <- xpi^p mod f
        while e:
            if e & 1:
                acc = _mulmod(Fp, acc, base, f)
            base = _mulmod(Fp, base, base, f)
            e >>= 1
        xpi = acc
        if pgcd(Fp, psub(Fp, xpi, x), f) != (1,):
            return False
    return True


def _smallest_irreducible(Fp: GF, k: int):
    """The monic irreducible x^k + c_{k-1} x^{k-1} + ... + c_0 over F_p whose
    lower coefficients have the smallest code c_0 + c_1 p + ... + c_{k-1}
    p^(k-1), so c_0 varies fastest: x^3 + x + 1 = (1, 1, 0, 1) for F_8."""
    p = Fp.p
    for code in range(p ** k):
        f = tuple(code // p ** i % p for i in range(k)) + (1,)
        if _is_irreducible(Fp, f):
            return f
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


class GF:
    """The field F_{p^k}; elements are ints encoding coefficient vectors."""

    def __init__(self, p: int, k: int = 1):
        if k < 1:
            raise InvalidDegree(f"extension degree must be >= 1, got {k}")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.k = k
        self.q = p ** k
        self._fp = None if k == 1 else field_make(p, 1)
        self.modulus = None if k == 1 else _smallest_irreducible(self._fp, k)
        self._add = self._mul = self._neg = self._inv = None
        if self.q <= _TABLE_MAX:
            self._build_tables()

    # -- encoding ---------------------------------------------------------

    def coeffs(self, a: int):
        """Coefficient vector (length k, low-to-high) of element code a."""
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def encode(self, coeffs) -> int:
        v = 0
        for c in reversed(list(coeffs)):
            v = v * self.p + (c % self.p)
        return v

    def elements(self):
        return range(self.q)

    def check_element(self, a: int):
        """Raise FieldMismatch unless a is an element code, in [0, q)."""
        if not 0 <= a < self.q:
            raise FieldMismatch(f"element {a} outside [0, {self.q})")

    # -- arithmetic --------------------------------------------------------

    def _build_tables(self):
        q, p = self.q, self.p
        if self.k == 1:
            self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self._mul = [[(a * b) % p for b in range(p)] for a in range(p)]
            self._neg = [(-a) % p for a in range(p)]
        else:
            vecs = [self.coeffs(a) for a in range(q)]
            add, mul = [[0] * q for _ in range(q)], [[0] * q for _ in range(q)]
            for a in range(q):  # each unordered pair once, then mirrored
                for b in range(a, q):
                    add[a][b] = add[b][a] = self.encode(
                        (x + y) % p for x, y in zip(vecs[a], vecs[b])
                    )
                    mul[a][b] = mul[b][a] = self.encode(
                        _mulmod(self._fp, vecs[a], vecs[b], self.modulus)
                    )
            self._add, self._mul = add, mul
            self._neg = [self.encode((-x) % p for x in vecs[a]) for a in range(q)]
        self._inv = [0] + [self._mul[a].index(1) for a in range(1, q)]

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        p = self.p
        return self.encode((x + y) % p for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def neg(self, a: int) -> int:
        if self._neg is not None:
            return self._neg[a]
        p = self.p
        if self.k == 1:
            return (-a) % p
        return self.encode((-x) % p for x in self.coeffs(a))

    def mul(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a][b]
        if self.k == 1:
            return a * b % self.p
        return self.encode(_mulmod(self._fp, self.coeffs(a), self.coeffs(b), self.modulus))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._inv is not None:
            return self._inv[a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 1 if e == 0 else 0
        e %= self.q - 1
        acc, cur = 1, a
        while e:
            if e & 1:
                acc = self.mul(acc, cur)
            cur = self.mul(cur, cur)
            e >>= 1
        return acc

    # -- row primitives ----------------------------------------------------
    #
    # Elementwise operations on rows (any sequences of element codes),
    # returning new lists.  Two rows are zipped, so the result is as long as
    # the shorter one.  Each primitive has a table branch, one lookup per
    # element after fetching the table row of the scalar once, and a fallback
    # through the element methods for fields without tables.

    def row_scale(self, x, c: int) -> list:
        """c * x."""
        if self._mul is not None:
            mc = self._mul[c]
            return [mc[a] for a in x]
        return [self.mul(c, a) for a in x]

    def row_addmul(self, x, c: int, y) -> list:
        """x + c * y."""
        if self._mul is not None:
            add, mc = self._add, self._mul[c]
            return [add[a][mc[b]] for a, b in zip(x, y)]
        return [self.add(a, self.mul(c, b)) for a, b in zip(x, y)]

    def row_horner(self, x, t: int) -> int:
        """sum of x_i * t^i (x low-to-high), by Horner's rule."""
        acc = 0
        if self._mul is not None:
            add, mt = self._add, self._mul[t]
            for c in reversed(x):
                acc = add[mt[acc]][c]
            return acc
        for c in reversed(x):
            acc = self.add(self.mul(acc, t), c)
        return acc

    # -- identity ----------------------------------------------------------

    def key(self):
        return (self.p, self.k, self.modulus)

    def __eq__(self, other):
        return isinstance(other, GF) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    # -- extension ---------------------------------------------------------

    def extension(self, m: int):
        """The canonical inclusion into F_{q^m}: returns (bigger, embed)."""
        if m < 1:
            raise InvalidDegree(f"extension degree must be >= 1, got {m}")
        if m == 1:
            return self, lambda a: a
        big = field_make(self.p, self.k * m)
        if self.k == 1:
            return big, lambda a: a  # constants keep their codes
        # prime-field codes 0..p-1 are the same in every field, so the
        # coefficients of the modulus and of a are already codes in big
        root = next(x for x in big.elements() if peval(big, self.modulus, x) == 0)
        return big, lambda a: peval(big, self.coeffs(a), root)


@lru_cache(maxsize=None)
def field_make(p: int, k: int) -> GF:
    """Field constructor with the deterministic modulus choice."""
    return GF(p, k)
