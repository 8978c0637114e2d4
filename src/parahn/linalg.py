"""Echelon-form linear algebra over a finite field.

Matrices are tuples of row tuples of element codes.  rref output is the
canonical reduced row echelon form, so it doubles as a dedup key for row
spaces and flag subspaces.  Every kernel works a whole row at a time through
the field's row primitives GF.row_scale and GF.row_addmul, never one
element method call per entry; elimination subtracts as row + (-c) * pivot.
"""

from __future__ import annotations

from .gf import GF


def rref(F: GF, rows):
    """Reduced row echelon form.

    Returns (rref_rows, rank, pivot_columns); zero rows are kept in place at
    the bottom so the output shape matches the input.
    """
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for sel in range(r, nrows):
            if mat[sel][c]:
                break
        else:
            continue
        row_r = mat[sel]
        mat[sel] = mat[r]
        if row_r[c] != 1:
            row_r = F.row_scale(row_r, F.inv(row_r[c]))
        mat[r] = row_r
        for i, row in enumerate(mat):
            if i != r and row[c]:
                mat[i] = F.row_addmul(row, F.neg(row[c]), row_r)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in mat), r, tuple(pivots)


def row_space_basis(F: GF, rows):
    """Nonzero rows of the rref: the canonical basis of the row space."""
    red, rank, _ = rref(F, rows)
    return red[:rank]


def rank(F: GF, rows) -> int:
    if not rows:
        return 0
    return rref(F, rows)[1]


def kernel_basis(F: GF, rows, ncols=None):
    """Canonical basis of the right kernel {v : rows @ v = 0}."""
    if not rows:
        return identity(ncols or 0)
    n = ncols if ncols is not None else len(rows[0])
    red, rk, pivots = rref(F, rows)
    piv = set(pivots)
    free = [c for c in range(n) if c not in piv]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(red[i][fc])
        basis.append(tuple(v))
    return tuple(basis)


def matmul(F: GF, a, b):
    if not a or not b:
        return ()
    out = []
    for ai in a:
        acc = [0] * len(b[0])
        for x, bl in zip(ai, b):
            if x:
                acc = F.row_addmul(acc, x, bl)
        out.append(tuple(acc))
    return tuple(out)


def identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def subspace_leq(F: GF, inner, outer) -> bool:
    if not inner:
        return True
    if not outer:
        return False
    r_out = rank(F, outer)
    return rank(F, tuple(outer) + tuple(inner)) == r_out


def intersect_dim(F: GF, a, b) -> int:
    """Dimension of the intersection of two row spaces."""
    ra = rank(F, a) if a else 0
    rb = rank(F, b) if b else 0
    if ra == 0 or rb == 0:
        return 0
    rsum = rank(F, tuple(a) + tuple(b))
    return ra + rb - rsum
