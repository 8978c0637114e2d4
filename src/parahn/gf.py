"""Finite fields F_{p^k} with canonical, serialization-stable construction.

Elements are plain ints in [0, p^k): the coefficient vector (c_0, ..., c_{k-1})
of the residue class mod the field's modulus, packed base p as
c_0 + c_1*p + ... .  All arithmetic goes through the owning GF instance.

Fields with at most _TABLE_MAX = 256 elements precompute dense add, sub, mul,
neg and inv tables, so each of those element operations is one lookup.  Bulk
work (echelon forms, polynomial arithmetic) goes through the row primitives
(row_add, row_addmul, row_scale, ...), which act on whole rows at once.  They
are the one place outside the element methods that branches on the tables:
the table branch fetches one table row per call and then does plain list
lookups, so linalg and poly never see a table and have one copy of each
kernel.  Larger fields have no tables; there the row primitives fall back to
the element methods, which work on coefficient vectors.

The modulus of a proper extension is pinned to the lexicographically smallest
monic irreducible (coefficients compared low-to-high), making serialized data
portable across runs and machines.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import FieldMismatch, InvalidDegree, NotPrime

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


def _fp_poly_mulmod(a, b, mod, p):
    """Product of coefficient tuples a*b reduced mod (mod, p); mod is monic."""
    k = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
    out = prod[:k] if len(prod) > k else prod + [0] * (k - len(prod))
    return tuple(x % p for x in out[:k]) if k else ()


def _fp_poly_powmod(base, e, mod, p):
    k = len(mod) - 1
    acc = tuple([1] + [0] * (k - 1))
    cur = base
    while e:
        if e & 1:
            acc = _fp_poly_mulmod(acc, cur, mod, p)
        cur = _fp_poly_mulmod(cur, cur, mod, p)
        e >>= 1
    return acc


def _fp_gcd(a, b, p):
    """Monic gcd of coefficient tuples over F_p (trailing zeros stripped)."""

    def norm(v):
        v = list(v)
        while v and v[-1] % p == 0:
            v.pop()
        return [x % p for x in v]

    a, b = norm(a), norm(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        db, da = len(b) - 1, len(a) - 1
        while da >= db and a:
            coef = a[-1] * inv % p
            shift = da - db
            for i, bi in enumerate(b):
                a[i + shift] = (a[i + shift] - coef * bi) % p
            a = norm(a)
            da = len(a) - 1
        a, b = b, a
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [x * inv % p for x in a]
    return tuple(a)


def _is_irreducible(coeffs, p):
    """Rabin test for a monic polynomial given as a full coefficient tuple."""
    k = len(coeffs) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    # x^(p^k) == x mod f, and gcd(x^(p^(k/d)) - x, f) == 1 for prime d | k
    target = (0, 1) + (0,) * (k - 2)
    xq = _fp_poly_powmod(target, p ** k, coeffs, p)
    if xq != target:
        return False
    d = 2
    kk = k
    prime_divs = set()
    while d * d <= kk:
        if kk % d == 0:
            prime_divs.add(d)
            while kk % d == 0:
                kk //= d
        d += 1
    if kk > 1:
        prime_divs.add(kk)
    for d in prime_divs:
        e = k // d
        xe = _fp_poly_powmod((0, 1) + (0,) * (k - 2), p ** e, coeffs, p)
        diff = tuple((a - b) % p for a, b in zip(xe, target))
        if _fp_gcd(diff, coeffs, p) != (1,):
            return False
    return True


def _smallest_irreducible(p: int, k: int):
    """Lex-smallest monic irreducible of degree k, low-to-high comparison."""
    lower = [0] * k
    while True:
        cand = tuple(lower) + (1,)
        if _is_irreducible(cand, p):
            return cand
        i = 0
        while i < k:
            lower[i] += 1
            if lower[i] < p:
                break
            lower[i] = 0
            i += 1
        else:  # pragma: no cover - an irreducible always exists
            raise AssertionError("no irreducible polynomial found")


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
        self.modulus = None if k == 1 else _smallest_irreducible(p, k)
        self._add = self._sub = self._mul = self._neg = self._inv = None
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
            self._add = [
                [self.encode((x + y) % p for x, y in zip(vecs[a], vecs[b])) for b in range(q)]
                for a in range(q)
            ]
            self._mul = [
                [self.encode(_fp_poly_mulmod(vecs[a], vecs[b], self.modulus, p)) for b in range(q)]
                for a in range(q)
            ]
            self._neg = [self.encode((-x) % p for x in vecs[a]) for a in range(q)]
        neg = self._neg
        self._sub = [[row[neg[b]] for b in range(q)] for row in self._add]
        self._inv = [0] + [self._mul[a].index(1) for a in range(1, q)]

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        p = self.p
        return self.encode((x + y) % p for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def sub(self, a: int, b: int) -> int:
        if self._sub is not None:
            return self._sub[a][b]
        return self.add(a, self.neg(b))

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
        return self.encode(
            _fp_poly_mulmod(self.coeffs(a), self.coeffs(b), self.modulus, self.p)
        )

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._inv is not None:
            return self._inv[a]
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

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

    def row_add(self, x, y) -> list:
        """x + y."""
        if self._add is not None:
            add = self._add
            return [add[a][b] for a, b in zip(x, y)]
        return [self.add(a, b) for a, b in zip(x, y)]

    def row_sub(self, x, y) -> list:
        """x - y."""
        if self._sub is not None:
            sub = self._sub
            return [sub[a][b] for a, b in zip(x, y)]
        return [self.sub(a, b) for a, b in zip(x, y)]

    def row_neg(self, x) -> list:
        """-x."""
        if self._neg is not None:
            neg = self._neg
            return [neg[a] for a in x]
        return [self.neg(a) for a in x]

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

    def row_submul(self, x, c: int, y) -> list:
        """x - c * y."""
        if self._mul is not None:
            sub, mc = self._sub, self._mul[c]
            return [sub[a][mc[b]] for a, b in zip(x, y)]
        return [self.sub(a, self.mul(c, b)) for a, b in zip(x, y)]

    def row_dot(self, x, y) -> int:
        """sum of x_i * y_i."""
        acc = 0
        if self._mul is not None:
            add, mul = self._add, self._mul
            for a, b in zip(x, y):
                acc = add[acc][mul[a][b]]
            return acc
        for a, b in zip(x, y):
            acc = self.add(acc, self.mul(a, b))
        return acc

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
        root = _modulus_root(self, big)
        powers = [1]
        for _ in range(self.k - 1):
            powers.append(big.mul(powers[-1], root))
        small = self

        def embed(a: int) -> int:
            acc = 0
            for c, rp in zip(small.coeffs(a), powers):
                if c:
                    acc = big.add(acc, big.mul(_embed_prime(big, c), rp))
            return acc

        return big, embed


def _embed_prime(field: GF, c: int) -> int:
    # prime-subfield constants have codes 0..p-1 in any of our encodings
    return c % field.p


def _modulus_root(small: GF, big: GF) -> int:
    """Smallest-code root of small.modulus inside big (deterministic)."""
    mod = small.modulus
    for cand in range(big.q):
        acc = 0
        for c in reversed(mod):
            acc = big.add(big.mul(acc, cand), _embed_prime(big, c))
        if acc == 0:
            return cand
    raise AssertionError("modulus has no root in the extension")  # pragma: no cover


@lru_cache(maxsize=None)
def field_make(p: int, k: int) -> GF:
    """Field constructor with the deterministic modulus choice."""
    return GF(p, k)
