"""Univariate polynomials over a finite field.

Engine code works on bare coefficient tuples (low-to-high, no trailing zeros;
the zero polynomial is the empty tuple) with the field passed explicitly; the
thin PolyGF wrapper carries its field for the public gcd contract.  The field
is any object with GF's element methods and row primitives, so poly imports
no field module at run time (gf builds its extension fields on poly's
kernels over the prime field, and imports poly).

The arithmetic kernels work on coefficient rows through the field's row
primitives (GF.row_add, GF.row_addmul, ...): a product is one shifted
x + c*y per term of the shorter factor, a division step one shifted x - c*y,
never one element method call per coefficient.  padd and psub return early on
a zero second operand and pmul scales directly by a constant factor, cases
that are common in the minor expansions and eliminations of sheaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import FieldMismatch

if TYPE_CHECKING:
    from .gf import GF

MINUS_INF = float("-inf")


def pnorm(c) -> tuple:
    c = tuple(c)
    if c and c[-1] == 0:
        n = len(c) - 1
        while n and c[n - 1] == 0:
            n -= 1
        return c[:n]
    return c


def pdeg(a):
    """Degree; the zero polynomial gets the -inf sentinel."""
    return len(a) - 1 if a else MINUS_INF


def padd(F: GF, a, b):
    if not b:
        return pnorm(a)
    if len(a) < len(b):
        a, b = b, a
    out = F.row_add(a, b)
    out.extend(a[len(b):])
    return pnorm(out)


def pneg(F: GF, a):
    return tuple(F.row_neg(a))


def psub(F: GF, a, b):
    if not b:
        return pnorm(a)
    out = F.row_sub(a, b)
    if len(a) >= len(b):
        out.extend(a[len(b):])
    else:
        out.extend(F.row_neg(b[len(a):]))
    return pnorm(out)


def pmul(F: GF, a, b):
    if not a or not b:
        return ()
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        return pnorm(F.row_scale(b, a[0]))
    lb = len(b)
    out = [0] * (len(a) + lb - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + lb] = F.row_addmul(out[i:i + lb], x, b)
    return pnorm(out)


def pscale(F: GF, a, c):
    if c == 0:
        return ()
    return pnorm(F.row_scale(a, c))


def pshift(a, n: int):
    """Multiply by t^n (n >= 0)."""
    if not a:
        return ()
    return (0,) * n + tuple(a)


def pdivmod(F: GF, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = F.inv(b[-1])
    while len(a) >= len(b) and a:
        coef = F.mul(a[-1], inv)
        shift = len(a) - len(b)
        q[shift] = coef
        a[shift:] = F.row_submul(a[shift:], coef, b)
        while a and a[-1] == 0:
            a.pop()
    return pnorm(q), pnorm(a)


def pmonic(F: GF, a):
    if not a:
        return ()
    return pscale(F, a, F.inv(a[-1]))


def pgcd(F: GF, a, b):
    """Monic gcd; gcd(0, 0) = 0."""
    a, b = pnorm(a), pnorm(b)
    while b:
        _, r = pdivmod(F, a, b)
        a, b = b, r
    return pmonic(F, a)


def pxgcd(F: GF, a, b):
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


def peval(F: GF, a, x: int) -> int:
    return F.row_horner(a, x)


def pmap(a, f):
    """Apply an element map (e.g. a field embedding) coefficient-wise."""
    return tuple(f(c) for c in a)


@dataclass(frozen=True)
class PolyGF:
    """Field-carrying polynomial, the public face of the bare-tuple helpers."""

    field: GF
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", pnorm(self.coeffs))

    @property
    def degree(self):
        return pdeg(self.coeffs)

    def __add__(self, other):
        self._same_field(other)
        return PolyGF(self.field, padd(self.field, self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._same_field(other)
        return PolyGF(self.field, psub(self.field, self.coeffs, other.coeffs))

    def __mul__(self, other):
        self._same_field(other)
        return PolyGF(self.field, pmul(self.field, self.coeffs, other.coeffs))

    def __call__(self, x: int) -> int:
        return peval(self.field, self.coeffs, x)

    def _same_field(self, other):
        if self.field != other.field:
            raise FieldMismatch("polynomials live over different fields")


def poly_gcd(a: PolyGF, b: PolyGF) -> PolyGF:
    if a.field != b.field:
        raise FieldMismatch("gcd arguments live over different fields")
    return PolyGF(a.field, pgcd(a.field, a.coeffs, b.coeffs))

