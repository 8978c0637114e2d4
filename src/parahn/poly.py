"""Univariate polynomials over a finite field.

Engine code works on bare coefficient tuples (low-to-high, no trailing zeros;
the zero polynomial is the empty tuple) with the field passed explicitly.  The
field is any object with GF's element methods and row primitives, so poly
imports no field module at run time (gf builds its extension fields on poly's
kernels over the prime field, and imports poly).

The arithmetic kernels work on coefficient rows through the field's row
primitives (GF.row_scale, GF.row_addmul, GF.row_horner): a product is one
shifted x + c*y per term of the shorter factor, a division step one shifted
x + (-c)*y, never one element method call per coefficient.  psub returns
early on a zero second operand and pmul scales directly by a constant factor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .gf import GF


def pnorm(c) -> tuple:
    c = tuple(c)
    if c and c[-1] == 0:
        n = len(c) - 1
        while n and c[n - 1] == 0:
            n -= 1
        return c[:n]
    return c


def psub(F: GF, a, b):
    if not b:
        return pnorm(a)
    minus = F.neg(1)
    out = F.row_addmul(a, minus, b)
    if len(a) >= len(b):
        out.extend(a[len(b):])
    else:
        out.extend(F.row_scale(b[len(a):], minus))
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
        a[shift:] = F.row_addmul(a[shift:], F.neg(coef), b)
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


def peval(F: GF, a, x: int) -> int:
    return F.row_horner(a, x)


def pmap(a, f):
    """Apply an element map (e.g. a field embedding) coefficient-wise."""
    return tuple(f(c) for c in a)
